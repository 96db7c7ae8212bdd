(* Shared per-run reporting: the record a measured run produces, the
   human-readable one-line summary, and a small deterministic JSON
   writer for machine-readable summaries (CI artifacts).

   This is the single home for per-run stats formatting: the figure
   benches, the CI smoke bench and the volume scaling bench all render
   {!Vrunner} results through these helpers, so the formats cannot drift
   apart. *)

type run = {
  duration : float;
  clients : int;
  outstanding : int;
  read_ops : int;
  write_ops : int;
  read_mbs : float;
  write_mbs : float;
  total_mbs : float;
  read_latency : float;
  write_latency : float;
  msgs : float;
  recoveries : float;
  rpc_retries : int;
  rpc_giveups : int;
  write_giveups : int;
  recovery_phases : (string * int) list;
}

(* Unified failure accounting: one record, one JSON schema, so "how did
   this run degrade" reads the same everywhere. *)
type failures = {
  write_abandoned : int;
  write_stuck : int;
  hedges : int;
  hedge_wins : int;
  fast_fails : int;
  quarantines : int;
}

let no_failures =
  {
    write_abandoned = 0;
    write_stuck = 0;
    hedges = 0;
    hedge_wins = 0;
    fast_fails = 0;
    quarantines = 0;
  }

let phase_suffix key =
  match String.rindex_opt key '.' with
  | Some dot -> String.sub key (dot + 1) (String.length key - dot - 1)
  | None -> key

let print_run ~label r =
  Printf.printf
    "%-34s %2d clients x%-3d | write %7.2f MB/s (%6d ops, %5.2f ms) | read \
     %7.2f MB/s (%6d ops, %5.2f ms) | %.0f msgs%s\n%!"
    label r.clients r.outstanding r.write_mbs r.write_ops
    (1000. *. r.write_latency) r.read_mbs r.read_ops (1000. *. r.read_latency)
    r.msgs
    (if r.recoveries > 0. then Printf.sprintf " | %.0f recoveries" r.recoveries
     else "");
  if
    r.rpc_retries > 0 || r.rpc_giveups > 0 || r.write_giveups > 0
    || r.recovery_phases <> []
  then begin
    let phases =
      List.map
        (fun (key, n) -> Printf.sprintf "%s=%d" (phase_suffix key) n)
        r.recovery_phases
    in
    Printf.printf
      "%-34s    retries %d | give-ups rpc=%d write=%d | recovery phases: %s\n%!"
      "" r.rpc_retries r.rpc_giveups r.write_giveups
      (if phases = [] then "-" else String.concat " " phases)
  end

(* ------------------------------------------------------------------ *)
(* Deterministic JSON.  Floats carry an explicit decimal count so the
   rendering is byte-stable across runs and platforms (CI asserts the
   whole file is identical for identical seeds). *)

type json =
  | J_int of int
  | J_float of float * int  (* value, decimals *)
  | J_bool of bool
  | J_str of string
  | J_raw of string  (* pre-rendered fragment, e.g. Metrics.to_json *)
  | J_obj of (string * json) list
  | J_arr of json list

(* Fixed-precision float printer.  [%.*f] alone is not enough for a
   committed baseline: NaN/infinity render as non-JSON tokens and
   negative zero as "-0.00", any of which makes byte-level diffs (and
   the compare gate) unstable across compilers.  Normalize all three. *)
let float_str ~decimals f =
  match Float.classify_float f with
  | Float.FP_nan | Float.FP_infinite -> "null"
  | _ ->
    let s = Printf.sprintf "%.*f" decimals f in
    if String.length s > 1 && s.[0] = '-' && float_of_string s = 0. then
      String.sub s 1 (String.length s - 1)
    else s

let rec render buf ~indent v =
  let pad = String.make (2 * indent) ' ' in
  match v with
  | J_int i -> Buffer.add_string buf (string_of_int i)
  | J_float (f, d) -> Buffer.add_string buf (float_str ~decimals:d f)
  | J_bool b -> Buffer.add_string buf (if b then "true" else "false")
  | J_str s -> Buffer.add_string buf (Printf.sprintf "%S" s)
  | J_raw s -> Buffer.add_string buf s
  | J_obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (key, v) ->
        Buffer.add_string buf (Printf.sprintf "%s  %S: " pad key);
        render buf ~indent:(indent + 1) v;
        if i < List.length fields - 1 then Buffer.add_char buf ',';
        Buffer.add_char buf '\n')
      fields;
    Buffer.add_string buf (pad ^ "}")
  | J_arr items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i v ->
        Buffer.add_string buf (pad ^ "  ");
        render buf ~indent:(indent + 1) v;
        if i < List.length items - 1 then Buffer.add_char buf ',';
        Buffer.add_char buf '\n')
      items;
    Buffer.add_string buf (pad ^ "]")

let to_string v =
  let buf = Buffer.create 512 in
  render buf ~indent:0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let write_file path v =
  let oc = open_out path in
  output_string oc (to_string v);
  close_out oc

(* The standard per-run stats block shared by every JSON summary. *)
let run_fields r =
  [
    ("clients", J_int r.clients);
    ("outstanding", J_int r.outstanding);
    ("duration_s", J_float (r.duration, 3));
    ("read_ops", J_int r.read_ops);
    ("write_ops", J_int r.write_ops);
    ("read_mbs", J_float (r.read_mbs, 3));
    ("write_mbs", J_float (r.write_mbs, 3));
    ("read_latency_ms", J_float (1000. *. r.read_latency, 4));
    ("write_latency_ms", J_float (1000. *. r.write_latency, 4));
    ("msgs", J_float (r.msgs, 0));
  ]

(* The standard failure/health block: same keys in every summary. *)
let failure_fields f =
  [
    ("write_abandoned", J_int f.write_abandoned);
    ("write_stuck", J_int f.write_stuck);
    ("hedges", J_int f.hedges);
    ("hedge_wins", J_int f.hedge_wins);
    ("fast_fails", J_int f.fast_fails);
    ("quarantines", J_int f.quarantines);
  ]

let scrub_fields (r : Scrub.report) =
  [
    ("scanned", J_int r.Scrub.scanned);
    ("healthy", J_int r.Scrub.healthy);
    ("repaired", J_int r.Scrub.repaired);
    ("unrepaired", J_int r.Scrub.unrepaired);
    ("corrupt_detected", J_int r.Scrub.corrupt_detected);
    ("stale_detected", J_int r.Scrub.stale_detected);
    ("integrity_repaired", J_int r.Scrub.integrity_repaired);
  ]

(* ------------------------------------------------------------------ *)
(* JSON parser: the inverse of [render], so committed baselines written
   by [write_file] can be read back by the compare tool without an
   external dependency.  Recursive descent over standard JSON; numbers
   with a fraction or exponent parse to [J_float] (decimals inferred
   from the literal, so re-rendering round-trips), [null] to
   [J_raw "null"]. *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'u' ->
          if !pos + 4 >= n then fail "truncated \\u escape";
          let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
          (* Our writer only emits ASCII; anything else degrades to '?'. *)
          Buffer.add_char buf (if code < 128 then Char.chr code else '?');
          pos := !pos + 4
        | _ -> fail "bad escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while match peek () with Some c when is_num_char c -> true | _ -> false do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit then
      let decimals =
        match String.index_opt lit '.' with
        | Some dot when not (String.exists (fun c -> c = 'e' || c = 'E') lit)
          ->
          String.length lit - dot - 1
        | _ -> 6
      in
      match float_of_string_opt lit with
      | Some f -> J_float (f, decimals)
      | None -> fail "bad number"
    else
      match int_of_string_opt lit with
      | Some i -> J_int i
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        J_obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        J_obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        J_arr []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        J_arr (items [])
      end
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" (J_raw "null")
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "expected a JSON value"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  of_string s

(* Navigation helpers for parsed documents. *)
let member key = function
  | J_obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float_opt = function
  | Some (J_int i) -> Some (float_of_int i)
  | Some (J_float (f, _)) -> Some f
  | _ -> None

let print_failures ~label f =
  if f <> no_failures then
    Printf.printf
      "%-34s    abandoned %d | stuck %d | hedges %d (won %d) | fast-fails %d \
       | quarantines %d\n\
       %!"
      label f.write_abandoned f.write_stuck f.hedges f.hedge_wins f.fast_fails
      f.quarantines
