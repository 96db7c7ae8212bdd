(* What one workload run reports, and how it is printed. *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  note : string;  (** printed after the unit, e.g. a sample count *)
}

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

(* Correctness ledger: every operation the run issues is attempted;
   an exception from the stack, a wrong byte or a failed health check
   is a failure.  Any failure makes the run exit non-zero. *)
type ledger = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** first few failure descriptions *)
}

let ledger () = { attempted = 0; failed = 0; notes = [] }
let attempt l = l.attempted <- l.attempted + 1

let fail l msg =
  l.failed <- l.failed + 1;
  if List.length l.notes < 8 then l.notes <- msg :: l.notes

let expect l ok msg =
  attempt l;
  if not ok then fail l msg

(* Every listed stripe satisfies the code: the redundant blocks the
   nodes hold encode the data blocks.  Reads never look at redundant
   blocks, so this is the check that catches a lost or doubled add.
   [block ~stripe ~pos] is the block a quiescent node holds. *)
let check_stripes l code ~stripes ~block =
  List.iter
    (fun s ->
      let blocks =
        Array.init (Rs_code.n code) (fun pos -> block ~stripe:s ~pos)
      in
      expect l
        (Rs_code.verify_stripe code blocks)
        (Printf.sprintf "stripe %d: redundant blocks do not encode its data" s))
    stripes

type t = {
  workload : string;
  ledger : ledger;
  metrics : metric list;
  details : (string * Report.json) list;  (** extra fields for [--json] *)
}

let correct r = r.ledger.failed = 0 && r.ledger.attempted > 0

(* Shortest decimal that reads back as the same float: values keep all
   their digits without printing 17 of them for every number. *)
let num v =
  if not (Float.is_finite v) then invalid_arg "Result.num: not finite";
  let rec go p =
    let s = Printf.sprintf "%.*g" p v in
    if p >= 17 || float_of_string s = v then s else go (p + 1)
  in
  go 15

let print_lines r =
  List.iter
    (fun m ->
      Printf.printf "%s %s %s %s%s\n" r.workload m.name (num m.value) m.unit_
        (if m.note = "" then "" else " " ^ m.note))
    r.metrics;
  List.iter
    (fun n -> Printf.eprintf "%s FAILED: %s\n" r.workload n)
    (List.rev r.ledger.notes)

let quote s = "\"" ^ String.escaped s ^ "\""

(* The one-line summary every run ends with. *)
let summary_line r =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (quote m.name)
          (num m.value) (quote m.unit_))
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) r.ledger.attempted r.ledger.failed
    (String.concat ", " metrics)

let to_json ~meta r =
  let open Report in
  let metric m =
    (m.name, J_obj [ ("value", J_raw (num m.value)); ("unit", J_str m.unit_) ])
  in
  J_obj
    (meta
    @ [
        ("workload", J_str r.workload);
        ("correct", J_bool (correct r));
        ("attempted", J_int r.ledger.attempted);
        ("failed", J_int r.ledger.failed);
        ("failures", J_arr (List.rev_map (fun s -> J_str s) r.ledger.notes));
        ("metrics", J_obj (List.map metric r.metrics));
      ]
    @ r.details)
