(* Model-based fuzzing: qcheck generates random schedules of operations
   (writes, reads, storage crashes + remaps, GC rounds, scrubs) executed
   in direct mode, checked step-by-step against a trivial reference
   model (a Hashtbl of block contents).  Because direct mode is
   sequential, every completed write is immediately durable, so the
   model is exact: any divergence is a protocol bug.  Stripes are also
   white-box verified against the erasure code at the end. *)

type op =
  | Op_write of int * char
  | Op_read of int
  | Op_crash_remap of int
  | Op_gc
  | Op_scrub

let op_to_string = function
  | Op_write (l, c) -> Printf.sprintf "write(%d,%c)" l c
  | Op_read l -> Printf.sprintf "read(%d)" l
  | Op_crash_remap node -> Printf.sprintf "crash+remap(%d)" node
  | Op_gc -> "gc"
  | Op_scrub -> "scrub"

let gen_op ~blocks ~n =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun l c -> Op_write (l, c)) (int_bound (blocks - 1))
             (map Char.chr (int_range 65 90)));
        (5, map (fun l -> Op_read l) (int_bound (blocks - 1)));
        (1, map (fun node -> Op_crash_remap node) (int_bound (n - 1)));
        (1, return Op_gc);
        (1, return Op_scrub);
      ])

let run_schedule ~k ~n ~blocks ops =
  let cfg = Config.make ~strategy:Config.Serial ~t_p:1 ~block_size:16 ~k ~n () in
  let direct = Direct_env.create cfg in
  let client = Direct_env.make_client direct ~id:1 in
  let writer = Direct_env.make_client direct ~id:2 in
  let read l = Client.read writer ~slot:(l / k) ~i:(l mod k) in
  let model = Hashtbl.create 32 in
  let expected l =
    Option.value (Hashtbl.find_opt model l) ~default:(Bytes.make 16 '\000')
  in
  (* The configured t_d is 1: at most one unrepaired storage crash may
     be outstanding.  Like the paper's monitoring facility (Sec 3.10),
     the harness restores full redundancy before allowing a second
     crash; reads and writes in between run against the degraded
     cluster, which is the interesting coverage. *)
  let unrepaired_crash = ref false in
  let all_slots = List.init ((blocks + k - 1) / k) Fun.id in
  let scrub_ok () =
    unrepaired_crash := false;
    (Scrub.scrub client ~slots:all_slots).Scrub.unrepaired = 0
  in
  List.for_all
    (fun op ->
      match op with
      | Op_write (l, c) ->
        let v = Bytes.make 16 c in
        Client.write writer ~slot:(l / k) ~i:(l mod k) v;
        Hashtbl.replace model l v;
        true
      | Op_read l -> Bytes.equal (read l) (expected l)
      | Op_crash_remap node ->
        let repaired = if !unrepaired_crash then scrub_ok () else true in
        Direct_env.crash_node direct node;
        Direct_env.remap_node direct node;
        unrepaired_crash := true;
        repaired
      | Op_gc ->
        Client.collect_garbage writer;
        true
      | Op_scrub -> scrub_ok ())
    ops
  &&
  (* Final sweep: every model block readable, every stripe decodable. *)
  Hashtbl.fold
    (fun l v acc -> acc && Bytes.equal (read l) v)
    model true
  &&
  let r = Scrub.scrub client ~slots:(List.init ((blocks + k - 1) / k) Fun.id) in
  r.Scrub.unrepaired = 0

let prop_model ~name ~k ~n ~blocks ~count =
  QCheck.Test.make ~name ~count
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
       QCheck.Gen.(list_size (int_range 10 60) (gen_op ~blocks ~n)))
    (fun ops -> run_schedule ~k ~n ~blocks ops)

let props =
  [
    prop_model ~name:"model fuzz 3-of-5 (serial)" ~k:3 ~n:5 ~blocks:12 ~count:60;
    prop_model ~name:"model fuzz 2-of-4" ~k:2 ~n:4 ~blocks:8 ~count:40;
    prop_model ~name:"model fuzz 4-of-6" ~k:4 ~n:6 ~blocks:16 ~count:40;
  ]

(* A deterministic long mixed schedule as a plain unit test (fast to
   debug if it ever breaks). *)
let test_long_deterministic_schedule () =
  let rng = Random.State.make [| 0xF00D |] in
  let blocks = 12 and n = 5 in
  let ops =
    List.init 400 (fun _ ->
        match Random.State.int rng 10 with
        | 0 -> Op_crash_remap (Random.State.int rng n)
        | 1 -> Op_gc
        | 2 -> Op_scrub
        | x when x < 6 ->
          Op_write (Random.State.int rng blocks,
                    Char.chr (65 + Random.State.int rng 26))
        | _ -> Op_read (Random.State.int rng blocks))
  in
  Alcotest.(check bool) "400-op schedule stays consistent" true
    (run_schedule ~k:3 ~n:5 ~blocks ops)

let suite =
  ( "model_fuzz",
    Alcotest.test_case "long deterministic schedule" `Quick
      test_long_deterministic_schedule
    :: List.map QCheck_alcotest.to_alcotest props )
