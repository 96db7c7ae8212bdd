(* BENCHMARK.json, read back: the metric names, units, directions and
   bounds every run must match and [repeat] judges against.  Keeping
   the check in the run itself means a change cannot silently drop or
   rename a metric. *)

type metric = {
  name : string;
  unit_ : string;
  lower_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  workloads : string list;
  run_seconds : float;  (** the default length of a run's timed window *)
  end_to_end : metric list;
  per_layer : metric list;
}

let file = "BENCHMARK.json"

let str = function
  | Some (Report.J_str s) -> s
  | _ -> failwith (file ^ ": expected a string")

let list key j =
  match Report.member key j with
  | Some (Report.J_arr l) -> l
  | _ -> failwith (Printf.sprintf "%s: missing list %S" file key)

let metric j =
  {
    name = str (Report.member "name" j);
    unit_ = str (Report.member "unit" j);
    lower_better = str (Report.member "better" j) = "lower";
    bound = Report.to_float_opt (Report.member "bound" j);
  }

let load () =
  let j = Report.read_file file in
  let name w = str (Report.member "name" w) in
  {
    workloads = List.map name (list "workloads" j);
    run_seconds =
      Option.get (Report.to_float_opt (Report.member "run_seconds" j));
    end_to_end = List.map metric (list "end_to_end" j);
    per_layer = List.map metric (list "per_layer" j);
  }

(* [Error msg] unless [produced] has exactly the names and units the
   spec lists for this mode. *)
let check spec ~trace (produced : Result.metric list) =
  let want = if trace then spec.per_layer else spec.end_to_end in
  let key name unit_ = name ^ " [" ^ unit_ ^ "]" in
  let want = List.map (fun m -> key m.name m.unit_) want in
  let got =
    List.map (fun (m : Result.metric) -> key m.name m.unit_) produced
  in
  let missing = List.filter (fun k -> not (List.mem k got)) want in
  let extra = List.filter (fun k -> not (List.mem k want)) got in
  if missing = [] && extra = [] then Ok ()
  else
    Error
      (Printf.sprintf "metrics disagree with %s: missing {%s}, unlisted {%s}"
         file (String.concat ", " missing) (String.concat ", " extra))
