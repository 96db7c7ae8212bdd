type t = { counters : (string, float ref) Hashtbl.t }

let create () = { counters = Hashtbl.create 32 }

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
    let r = ref 0. in
    Hashtbl.add t.counters name r;
    r

let incr t name =
  let r = counter_ref t name in
  r := !r +. 1.

let add t name amount =
  let r = counter_ref t name in
  r := !r +. amount

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0.

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort compare

let reset t = Hashtbl.reset t.counters

let snapshot t =
  let copy = create () in
  Hashtbl.iter (fun k r -> Hashtbl.add copy.counters k (ref !r)) t.counters;
  copy
