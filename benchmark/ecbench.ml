(* ecbench: the repo benchmark (see README.md).

     ecbench run [--workload W|all] [--seed N] [--seconds S] [--trace 0|1]
                 [--quick] [--json FILE]
     ecbench repeat [--workload W|all] [--seed N] [--trace 0|1] [--runs R]
                    [--json FILE]

   [run] measures one workload for [--seconds] (default: [run_seconds]
   in BENCHMARK.json, the value the benchmark command is given) and
   prints every metric as "workload metric value unit", then one JSON
   summary line; it exits 1 when any correctness check failed.  [all]
   runs each workload in a child process of its own, one after another,
   so heap peaks and GC state stay per workload.  [--quick] shrinks every
   workload for a smoke run ([dune runtest]).  [repeat] runs two
   interleaved sets of [--runs] full runs per workload (seeds N, N+1, ...)
   in child processes and judges each end-to-end metric against its
   bound in BENCHMARK.json. *)

let default_seed = 1

let workloads =
  List.map (fun s -> s.Par_workloads.name) Par_workloads.all
  @ [ Sim_workload.name ]

(* Span dumps of traced runs go under the build directory, which
   version control already ignores. *)
let span_dir = Filename.concat "_build" "ecbench"
let quick_seconds = 0.1

type opts = {
  workload : string;
  seed : int;
  seconds : float option;
  trace : bool;
  quick : bool;
  json : string option;
  runs : int;
}

let usage () =
  prerr_endline
    "usage: ecbench run [--workload W|all] [--seed N] [--seconds S] [--trace \
     0|1]\n\
    \                   [--quick] [--json FILE]\n\
    \       ecbench repeat [--workload W|all] [--seed N] [--trace 0|1] [--runs \
     R]\n\
    \                      [--json FILE]";
  prerr_endline ("workloads: " ^ String.concat ", " workloads);
  exit 2

let positive s = Option.fold ~none:false ~some:(fun x -> x > 0.) s
let at_least_two r = Option.fold ~none:false ~some:(fun x -> x >= 2) r

(* [run] takes the window and the quick flag, [repeat] the run count. *)
let rec parse ~run o = function
  | [] -> o
  | "--workload" :: w :: rest when w = "all" || List.mem w workloads ->
    parse ~run { o with workload = w } rest
  | "--seed" :: s :: rest when int_of_string_opt s <> None ->
    parse ~run { o with seed = int_of_string s } rest
  | "--trace" :: (("0" | "1") as v) :: rest ->
    parse ~run { o with trace = v = "1" } rest
  | "--json" :: f :: rest -> parse ~run { o with json = Some f } rest
  | "--seconds" :: s :: rest when run && positive (float_of_string_opt s) ->
    parse ~run { o with seconds = float_of_string_opt s } rest
  | "--quick" :: rest when run -> parse ~run { o with quick = true } rest
  | "--runs" :: r :: rest when (not run) && at_least_two (int_of_string_opt r)
    ->
    parse ~run { o with runs = int_of_string r } rest
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Host metadata carried by every JSON report. *)

(* Read from .git directly: a benchmark checkout need not be a git
   repository, and no git process is started. *)
let commit () =
  let first_line f =
    String.trim
      (Option.get (In_channel.with_open_text f In_channel.input_line))
  in
  try
    let head = first_line ".git/HEAD" in
    if String.starts_with ~prefix:"ref: " head then
      let ref_ = String.sub head 5 (String.length head - 5) in
      first_line (Filename.concat ".git" ref_)
    else head
  with Sys_error _ | Invalid_argument _ -> "unknown"

let seconds o (spec : Spec.t) =
  Option.value o.seconds
    ~default:(if o.quick then quick_seconds else spec.Spec.run_seconds)

let meta o spec =
  let open Report in
  [
    ("host", J_str (Unix.gethostname ()));
    ("nproc", J_int (Domain.recommended_domain_count ()));
    ("ocaml", J_str Sys.ocaml_version);
    ("commit", J_str (commit ()));
    ("seed", J_int o.seed);
    ("default_seed", J_int default_seed);
    ("seconds", J_raw (Result.num (seconds o spec)));
    ("trace", J_bool o.trace);
    ("quick", J_bool o.quick);
  ]

(* ------------------------------------------------------------------ *)

(* A quick run writes no span dump: it runs inside the build tree. *)
let span_file o =
  if o.quick then Filename.null
  else begin
    List.iter
      (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
      [ Filename.dirname span_dir; span_dir ];
    Filename.concat span_dir ("spans-" ^ o.workload ^ ".tsv")
  end

let measure o ~seconds =
  let seed = o.seed and quick = o.quick in
  match
    List.find_opt
      (fun s -> s.Par_workloads.name = o.workload)
      Par_workloads.all
  with
  | Some shape when o.trace ->
    Par_workloads.run_traced ~quick shape ~seed ~seconds ~spans:(span_file o)
  | Some shape -> Par_workloads.run_plain ~quick shape ~seed ~seconds
  | None when o.trace -> Sim_workload.run_traced ~quick ~seed ~seconds
  | None -> Sim_workload.run_plain ~seed ~seconds

let run_one o =
  let spec = Spec.load () in
  let r = measure o ~seconds:(seconds o spec) in
  (match Spec.check spec ~trace:o.trace r.Result.metrics with
  | Ok () -> ()
  | Error m -> Result.fail r.Result.ledger m);
  Result.print_lines r;
  Option.iter
    (fun f -> Report.write_file f (Result.to_json ~meta:(meta o spec) r))
    o.json;
  print_endline (Result.summary_line r);
  exit (if Result.correct r then 0 else 1)

let child_args o ~workload ~seed =
  let seconds s = [ "--seconds"; Result.num s ] in
  Array.of_list
    ([ Sys.executable_name; "run"; "--workload"; workload ]
    @ [ "--seed"; string_of_int seed ]
    @ [ "--trace"; (if o.trace then "1" else "0") ]
    @ (if o.quick then [ "--quick" ] else [])
    @ Option.fold ~none:[] ~some:seconds o.seconds)

let run_all o =
  let run w =
    let json =
      match o.json with
      | None -> [||]
      | Some f ->
        [| "--json"; Filename.remove_extension f ^ "-" ^ w ^ ".json" |]
    in
    let args = Array.append (child_args o ~workload:w ~seed:o.seed) json in
    let pid =
      Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
        Unix.stderr
    in
    snd (Unix.waitpid [] pid) = Unix.WEXITED 0
  in
  let ok = List.map run workloads in
  exit (if List.for_all Fun.id ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* repeat *)

(* The metrics of one child run, from its JSON summary line; [None] if
   the run failed. *)
let child_metrics o ~workload ~seed =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (child_args o ~workload ~seed)
  in
  let lines = String.split_on_char '\n' (In_channel.input_all ic) in
  let status = Unix.close_process_in ic in
  let value m = Report.to_float_opt (Report.member "value" m) in
  match (status, List.rev (List.filter (( <> ) "") lines)) with
  | Unix.WEXITED 0, last :: _ -> (
    match Report.member "metrics" (Report.of_string last) with
    | Some (Report.J_obj ms) ->
      Some
        (List.filter_map
           (fun (name, m) -> Option.map (fun v -> (name, v)) (value m))
           ms)
    | _ -> None)
  | _ -> None

(* Interquartile distance over the median. *)
let spread values =
  match Meter.quartiles values with
  | [ q1; q2; q3 ] -> if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2
  | _ -> assert false

(* How far apart two medians are, as a share of the smaller. *)
let difference ma mb =
  if ma = mb then 0.
  else Float.abs (mb -. ma) /. Float.min (Float.abs ma) (Float.abs mb)

(* One table row: both sets' medians and spreads, how far apart the
   medians are, and the verdict.  A metric whose spread or difference
   exceeds its bound is unresolved: at that bound the benchmark cannot
   tell a change from noise.  [setup_s] is judged on the difference
   alone. *)
let row ~workload (m : Spec.metric) a b =
  let ma = Meter.median_of a and mb = Meter.median_of b in
  let sa = spread a and sb = spread b in
  let diff = difference ma mb in
  let widest = if m.Spec.name = "setup_s" then 0. else Float.max sa sb in
  let resolved, verdict =
    match m.Spec.bound with
    | None -> (true, if ma = mb then "same" else "-")
    | Some bound ->
      if diff > bound || widest > bound then (false, "UNRESOLVED")
      else if widest > bound /. 3. then (true, "pass (spread > bound/3)")
      else (true, "pass")
  in
  Printf.printf "%-12s %-36s %6s %6s %14.6g %7.4f %14.6g %7.4f %8.4f  %s\n"
    workload m.Spec.name
    (if m.Spec.lower_better then "lower" else "higher")
    (Option.fold ~none:"-" ~some:(Printf.sprintf "%.2f") m.Spec.bound)
    ma sa mb sb diff verdict;
  resolved

let repeat o =
  let spec = Spec.load () in
  let metrics =
    if o.trace then spec.Spec.per_layer else spec.Spec.end_to_end
  in
  let chosen = if o.workload = "all" then workloads else [ o.workload ] in
  let failed_runs = ref 0 in
  let run s w r =
    let seed = o.seed + r in
    let res = child_metrics o ~workload:w ~seed in
    Printf.eprintf "set %d %s seed %d: %s\n%!" (s + 1) w seed
      (if res = None then "FAILED" else "ok");
    if res = None then incr failed_runs;
    res
  in
  (* The two sets' runs alternate, and so does which set runs first, so
     a drift in the host's speed over the minutes a set takes moves both
     sets alike. *)
  let both w =
    let pairs =
      List.init o.runs (fun r ->
          if r mod 2 = 0 then
            let a = run 0 w r in
            (a, run 1 w r)
          else
            let b = run 1 w r in
            (run 0 w r, b))
    in
    let a, b = List.split pairs in
    (w, (List.filter_map Fun.id a, List.filter_map Fun.id b))
  in
  let sets = List.map both chosen in
  Printf.printf "%-12s %-36s %6s %6s %14s %7s %14s %7s %8s  %s\n" "workload"
    "metric" "better" "bound" "set1_median" "spread" "set2_median" "spread"
    "diff" "verdict";
  let values w pick (m : Spec.metric) =
    List.filter_map (List.assoc_opt m.Spec.name) (pick (List.assoc w sets))
  in
  let resolved =
    List.concat_map
      (fun w ->
        List.filter_map
          (fun m ->
            let a = values w fst m and b = values w snd m in
            if List.length a < 2 || List.length b < 2 then None
            else Some (row ~workload:w m a b))
          metrics)
      chosen
  in
  let unresolved = List.length (List.filter not resolved) in
  if unresolved > 0 then Printf.printf "%d rows unresolved\n" unresolved;
  if !failed_runs > 0 then Printf.printf "%d runs failed\n" !failed_runs;
  (* Every run's values, for a table or a second opinion. *)
  Option.iter
    (fun f ->
      let open Report in
      let value (k, v) = (k, J_raw (Result.num v)) in
      let runs rs = J_arr (List.map (fun r -> J_obj (List.map value r)) rs) in
      let both (w, (a, b)) = (w, J_arr [ runs a; runs b ]) in
      write_file f
        (J_obj (meta o spec @ [ ("runs", J_obj (List.map both sets)) ])))
    o.json;
  exit (if unresolved = 0 && !failed_runs = 0 then 0 else 1)

let () =
  let o =
    {
      workload = "all";
      seed = default_seed;
      seconds = None;
      trace = false;
      quick = false;
      json = None;
      runs = 10;
    }
  in
  match Array.to_list Sys.argv with
  | _ :: "run" :: args ->
    let o = parse ~run:true o args in
    if o.workload = "all" then run_all o else run_one o
  | _ :: "repeat" :: args -> repeat (parse ~run:false o args)
  | _ -> usage ()
