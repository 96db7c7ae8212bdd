(* Clock and sample statistics shared by every workload. *)

(* Monotonic nanoseconds.  [Unix.gettimeofday] ticks in microseconds,
   which is a 3 % step on a 30 us read. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ns_of_s s = int_of_float (s *. 1e9)
let s_of_ns ns = float_of_int ns *. 1e-9
let us_of_ns ns = float_of_int ns *. 1e-3

(* Growable float buffer: latency samples are kept whole so that
   percentiles are exact nearest-rank values. *)
type samples = { mutable a : float array; mutable len : int }

let samples () = { a = Array.make 4096 0.; len = 0 }

let push s v =
  if s.len = Array.length s.a then begin
    let a = Array.make (2 * s.len) 0. in
    Array.blit s.a 0 a 0 s.len;
    s.a <- a
  end;
  s.a.(s.len) <- v;
  s.len <- s.len + 1

let count s = s.len

let sorted s =
  let a = Array.sub s.a 0 s.len in
  Array.sort Float.compare a;
  a

let sum s =
  let acc = ref 0. in
  for i = 0 to s.len - 1 do
    acc := !acc +. s.a.(i)
  done;
  !acc

let mean s = if s.len = 0 then 0. else sum s /. float_of_int s.len

(* Nearest-rank percentile of a sorted array: the smallest sample with
   at least [q] of the samples at or below it.  0 when empty. *)
let rank n q = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(rank n q - 1)

(* Samples strictly above the nearest-rank position of [q]. *)
let beyond n q = if n = 0 then 0 else n - rank n q

let median_of = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)]
   (default "exclusive" method), so spreads printed by [repeat] match
   what an outside script computes from the same values. *)
let quartiles l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Meter.quartiles: need at least two values";
  let m = ld + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.)
    [ 1; 2; 3 ]

(* A timed window cut into [windows] equal sub-windows.  Throughput and
   median latency are medians over the sub-windows, so a slow spell on
   a shared host, or a major GC slice, moves a few sub-windows and not
   the result.  The tail percentile pools every sample. *)
let windows = 20

type series = {
  window_ns : int;
  lat_us : samples array;  (** per sub-window *)
}

let series ~duration_ns =
  {
    window_ns = max 1 (duration_ns / windows);
    lat_us = Array.init windows (fun _ -> samples ());
  }

(* One unit of work that finished [at_ns] into the window and took
   [lat_ns]. *)
let tick s ~at_ns ~lat_ns =
  let w = max 0 (min (windows - 1) (at_ns / s.window_ns)) in
  push s.lat_us.(w) (us_of_ns lat_ns)

let per_second s =
  let rate l = float_of_int (count l) /. s_of_ns s.window_ns in
  median_of (Array.to_list (Array.map rate s.lat_us))

(* Units of work per second over the whole window, for a window too
   short to cut into parts. *)
let mean_per_second s =
  let units = Array.fold_left (fun n l -> n + count l) 0 s.lat_us in
  float_of_int units /. s_of_ns (windows * s.window_ns)

(* The median over sub-windows of each sub-window's median latency. *)
let window_p50 s =
  median_of
    (List.filter_map
       (fun l -> if count l = 0 then None else Some (percentile (sorted l) 0.5))
       (Array.to_list s.lat_us))

let pooled s =
  let a = Array.concat (List.map sorted (Array.to_list s.lat_us)) in
  Array.sort Float.compare a;
  a

let mib = 1024. *. 1024.

(* Bytes [stores] hold (every materialized slot's block plus protocol
   metadata) over the [blocks] user blocks they serve; and the metadata
   per slot. *)
let space ~block_size ~blocks stores =
  let total f = List.fold_left (fun n s -> n + f s) 0 stores in
  let slots = total Storage_node.slot_count in
  let meta = total Storage_node.overhead_bytes in
  ( float_of_int ((slots * block_size) + meta)
    /. float_of_int (blocks * block_size),
    float_of_int meta /. float_of_int (max 1 slots) )

(* Live major heap, in MiB, after the full major collection
   [Gc.stat] runs.  The heap's high-water mark is not used: how much
   garbage piles up before a major cycle ends varies from run to run,
   and on [rebuild] it jumps between two levels 60 % apart. *)
let live_heap_mb () =
  let words = Stdlib.Gc.((stat ()).live_words) in
  float_of_int (words * (Sys.word_size / 8)) /. mib
