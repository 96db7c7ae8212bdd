(* ecstore: command-line front end to the simulated erasure-coded storage
   service.

     ecstore simulate   -- run a workload on a simulated cluster
     ecstore resilience -- print tolerated failures for a code/strategy
     ecstore codes      -- inspect a Reed-Solomon code's coefficients
     ecstore crashdemo  -- scripted crash + online recovery run
     ecstore compare    -- classify a bench-profiles run against a baseline

   All knobs (k, n, strategy, clients, duration, ...) are flags; see
   `ecstore COMMAND --help`. *)

open Cmdliner
open Ecs_volume

(* --- shared flags --------------------------------------------------- *)

let k_arg =
  Arg.(value & opt int 3 & info [ "k" ] ~docv:"K" ~doc:"Data blocks per stripe.")

let n_arg =
  Arg.(
    value & opt int 5
    & info [ "n" ] ~docv:"N" ~doc:"Total blocks per stripe (data + redundant).")

let strategy_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "serial" -> Ok Config.Serial
    | "parallel" -> Ok Config.Parallel
    | "bcast" | "broadcast" -> Ok Config.Bcast
    | s when String.length s > 7 && String.sub s 0 7 = "hybrid:" -> (
      match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
      | Some g when g > 0 -> Ok (Config.Hybrid g)
      | _ -> Error (`Msg "hybrid group must be a positive integer"))
    | _ -> Error (`Msg "expected serial | parallel | bcast | hybrid:<g>")
  in
  let print fmt s = Format.pp_print_string fmt (Config.strategy_to_string s) in
  Arg.conv (parse, print)

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv Config.Parallel
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Redundant-update strategy: serial, parallel, bcast, or hybrid:$(i,g).")

let t_p_arg =
  Arg.(
    value & opt int 1
    & info [ "t-p" ] ~docv:"TP" ~doc:"Tolerated client crashes (Sec 4).")

let seed_arg =
  Arg.(value & opt int 0xEC5 & info [ "seed" ] ~doc:"Simulation seed.")

let make_config ~strategy ~t_p ~k ~n =
  try Ok (Config.make ~strategy ~t_p ~block_size:1024 ~k ~n ())
  with Invalid_argument m -> Error m

(* --- simulate -------------------------------------------------------- *)

let simulate k n strategy t_p clients outstanding duration write_frac blocks
    seed crash_at =
  match make_config ~strategy ~t_p ~k ~n with
  | Error m ->
    prerr_endline m;
    1
  | Ok cfg ->
    Printf.printf
      "simulating %d-of-%d (%s, t_p=%d, t_d=%d): %d clients x %d outstanding, \
       %.2f s, %d blocks, %.0f%% writes\n%!"
      k n
      (Config.strategy_to_string strategy)
      cfg.Config.t_p cfg.Config.t_d clients outstanding duration blocks
      (100. *. write_frac);
    let cluster = Shard_cluster.create ~remap_policy:`Auto ~seed cfg in
    let events =
      match crash_at with
      | None -> []
      | Some t ->
        [
          ( t,
            fun cl ->
              Printf.printf "t=%.3fs: crashing storage node 0\n%!" t;
              Shard_cluster.replace_node cl 0 );
        ]
    in
    let result =
      Vrunner.run_profile ~warmup:0.02 ~events ~blocks ~sc:cluster
        ~tenants:
          (Vrunner.clients clients (Profile.closed ~outstanding ~write_frac ()))
        ~duration ()
    in
    Report.print_run ~label:"result" result.Vrunner.run;
    let stats = Shard_cluster.stats cluster in
    Printf.printf "recoveries: %.0f; messages: %.0f; bytes: %.1f MB\n"
      (Stats.counter stats "note.recovery.done")
      (Stats.counter stats "msgs")
      (Stats.counter stats "bytes" /. 1e6);
    0

let simulate_cmd =
  let clients =
    Arg.(value & opt int 2 & info [ "c"; "clients" ] ~doc:"Client count.")
  in
  let outstanding =
    Arg.(
      value & opt int 8
      & info [ "o"; "outstanding" ] ~doc:"Outstanding requests per client.")
  in
  let duration =
    Arg.(
      value & opt float 0.2
      & info [ "d"; "duration" ] ~doc:"Simulated seconds to measure.")
  in
  let write_frac =
    Arg.(
      value & opt float 0.5
      & info [ "w"; "write-fraction" ] ~doc:"Fraction of writes in the mix.")
  in
  let blocks =
    Arg.(
      value & opt int 1024 & info [ "b"; "blocks" ] ~doc:"Logical block count.")
  in
  let crash_at =
    Arg.(
      value
      & opt (some float) None
      & info [ "crash-at" ] ~docv:"T"
          ~doc:"Crash (and remap) storage node 0 at simulated time $(docv).")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a workload on a simulated cluster")
    Term.(
      const simulate $ k_arg $ n_arg $ strategy_arg $ t_p_arg $ clients
      $ outstanding $ duration $ write_frac $ blocks $ seed_arg $ crash_at)

(* --- resilience ------------------------------------------------------ *)

let resilience k n =
  if n <= k then begin
    prerr_endline "need n > k";
    1
  end
  else begin
    let p = n - k in
    Printf.printf "%d-of-%d code: p = %d redundant blocks\n\n" k n p;
    Table.print ~title:"tolerated (client, storage) crash pairs"
      ~header:[ "strategy"; "pairs"; "common-case write latency (round trips)" ]
      [
        [
          "serial";
          Resilience.pairs_to_string (Resilience.tolerated_pairs `Serial ~p);
          string_of_int (Resilience.write_latency_serial ~p);
        ];
        [
          "parallel";
          Resilience.pairs_to_string (Resilience.tolerated_pairs `Parallel ~p);
          string_of_int Resilience.write_latency_parallel;
        ];
      ];
    Printf.printf
      "Corollary 1: to tolerate (t_p, t_d) you need delta redundant nodes:\n";
    Table.print ~title:"delta (serial / parallel)"
      ~header:
        ("t_p \\ t_d" :: List.map string_of_int [ 1; 2; 3; 4 ])
      (List.map
         (fun t_p ->
           string_of_int t_p
           :: List.map
                (fun t_d ->
                  Printf.sprintf "%d / %d"
                    (Resilience.delta_serial ~t_p ~t_d)
                    (Resilience.delta_parallel ~t_p ~t_d))
                [ 1; 2; 3; 4 ])
         [ 0; 1; 2; 3 ]);
    0
  end

let resilience_cmd =
  Cmd.v
    (Cmd.info "resilience" ~doc:"Print Section 4 failure-tolerance tables")
    Term.(const resilience $ k_arg $ n_arg)

(* --- codes ----------------------------------------------------------- *)

let codes k n =
  if k < 1 || n <= k || n > 255 then begin
    prerr_endline "need 1 <= k < n <= 255";
    1
  end
  else begin
    let code = Rs_code.create ~k ~n () in
    Printf.printf
      "systematic %d-of-%d Reed-Solomon over GF(2^8) (poly 0x11d)\n\n" k n;
    Table.print ~title:"alpha coefficients (redundant block j = sum alpha_ji * data_i)"
      ~header:("j \\ i" :: List.init k string_of_int)
      (List.init (n - k) (fun r ->
           let j = k + r in
           string_of_int j
           :: List.init k (fun i -> string_of_int (Rs_code.alpha code ~j ~i))));
    0
  end

let codes_cmd =
  Cmd.v
    (Cmd.info "codes" ~doc:"Show a code's update coefficients")
    Term.(const codes $ k_arg $ n_arg)

(* --- crashdemo -------------------------------------------------------- *)

let crashdemo k n strategy t_p seed =
  match make_config ~strategy ~t_p ~k ~n with
  | Error m ->
    prerr_endline m;
    1
  | Ok cfg ->
    let cluster = Shard_cluster.create ~remap_policy:`Auto ~seed cfg in
    Shard_cluster.on_note cluster (fun t e ->
        Printf.printf "  t=%8.3f ms  %s\n" (1000. *. t) e);
    let volume = Volume.create cluster ~id:0 in
    Shard_cluster.spawn cluster (fun () ->
        Printf.printf "writing %d blocks...\n" (2 * k);
        for l = 0 to (2 * k) - 1 do
          Volume.write volume l (Bytes.make 1024 (Char.chr (65 + (l mod 26))))
        done;
        Printf.printf "crashing storage node 0 and reading everything back:\n";
        Shard_cluster.replace_node cluster 0;
        let ok = ref true in
        for l = 0 to (2 * k) - 1 do
          let v = Volume.read volume l in
          if Bytes.get v 0 <> Char.chr (65 + (l mod 26)) then ok := false
        done;
        Printf.printf "all blocks %s after online recovery\n"
          (if !ok then "intact" else "CORRUPTED"));
    Shard_cluster.run cluster;
    0

let crashdemo_cmd =
  Cmd.v
    (Cmd.info "crashdemo" ~doc:"Scripted storage-crash + online-recovery demo")
    Term.(const crashdemo $ k_arg $ n_arg $ strategy_arg $ t_p_arg $ seed_arg)

(* --- scrubdemo --------------------------------------------------------- *)

let scrubdemo k n strategy t_p seed =
  match make_config ~strategy ~t_p ~k ~n with
  | Error m ->
    prerr_endline m;
    1
  | Ok cfg ->
    let cluster = Shard_cluster.create ~remap_policy:`Auto ~seed cfg in
    let volume = Volume.create cluster ~id:0 in
    let scrub () =
      Scrub.scrub (Volume.group_client volume 0)
        ~slots:(Shard_cluster.used_slots cluster ~group:0)
    in
    Shard_cluster.spawn cluster (fun () ->
        for l = 0 to (4 * k) - 1 do
          Volume.write volume l (Bytes.make 1024 's')
        done;
        Printf.printf "wrote %d blocks over %d stripes\n" (4 * k)
          (List.length (Shard_cluster.used_slots cluster ~group:0));
        let healthy = scrub () in
        Format.printf "scrub (healthy cluster): %a@." Scrub.pp_report healthy;
        Shard_cluster.replace_node cluster 1;
        Printf.printf "crashed storage node 1\n";
        let after = scrub () in
        Format.printf "scrub (after crash):    %a@." Scrub.pp_report after);
    Shard_cluster.run cluster;
    0

let scrubdemo_cmd =
  Cmd.v
    (Cmd.info "scrub" ~doc:"Verify and repair every stripe of a demo volume")
    Term.(const scrubdemo $ k_arg $ n_arg $ strategy_arg $ t_p_arg $ seed_arg)

(* --- compare ----------------------------------------------------------- *)

(* Exit-code contract (the CI regression gate relies on it):
   0 = no key regressed; 1 = at least one key regressed or went missing
   from the new run; 2 = unreadable or malformed input. *)
let compare_runs old_path new_path tolerance quiet =
  let load path =
    try Ok (Report.read_file path) with
    | Sys_error m -> Error m
    | Report.Parse_error m -> Error (Printf.sprintf "%s: %s" path m)
  in
  match (load old_path, load new_path) with
  | Error m, _ | _, Error m ->
    prerr_endline m;
    2
  | Ok old_doc, Ok new_doc -> (
    match Compare.classify ~tolerance ~old_doc ~new_doc with
    | exception Report.Parse_error m ->
      prerr_endline m;
      2
    | rows ->
      if not quiet then Compare.print rows;
      let bad = Compare.regressions rows in
      let count v =
        List.length (List.filter (fun r -> r.Compare.verdict = v) rows)
      in
      Printf.printf
        "%d keys: %d improved, %d unchanged, %d regressed, %d added, %d \
         missing (tolerance %.1f%%)\n"
        (List.length rows) (count Compare.Improved) (count Compare.Unchanged)
        (count Compare.Regressed) (count Compare.Added)
        (count Compare.Missing) (100. *. tolerance);
      if bad = [] then 0
      else begin
        List.iter
          (fun r ->
            Printf.printf "FAIL %s: %s\n" r.Compare.key
              (match r.Compare.verdict with
              | Compare.Missing -> "present in baseline, missing from new run"
              | _ ->
                Printf.sprintf "%.3f -> %.3f (wants %s)" r.Compare.old_mbs
                  r.Compare.new_mbs
                  (Compare.direction_to_string r.Compare.direction)))
          bad;
        1
      end)

let compare_cmd =
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD"
          ~doc:
            "Baseline bench JSON summary (bench profiles or bench volume \
             --topology).")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Fresh bench JSON summary of the same shape.")
  in
  let tolerance =
    Arg.(
      value & opt float 0.02
      & info [ "tolerance" ] ~docv:"FRAC"
          ~doc:
            "Relative tolerance: a throughput key regresses when it drops \
             below old*(1-$(docv)); a cost/latency key when it rises above \
             old*(1+$(docv)).")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print the verdict.")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Classify each profile x block-size x G key of a bench-profiles run \
          against a baseline (exit 1 on regression)")
    Term.(const compare_runs $ old_arg $ new_arg $ tolerance $ quiet)

(* --- main ------------------------------------------------------------- *)

let () =
  let doc =
    "erasure-coded distributed storage with lock-free concurrent updates \
     (reproduction of Aguilera-Janakiraman-Xu, DSN 2005)"
  in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "ecstore" ~version:"1.0.0" ~doc)
          [
            simulate_cmd;
            resilience_cmd;
            codes_cmd;
            crashdemo_cmd;
            scrubdemo_cmd;
            compare_cmd;
          ]))
