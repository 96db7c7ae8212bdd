(* Shared benchmark plumbing: a Bechamel wrapper that returns the OLS
   per-run estimate in nanoseconds, and small helpers. *)

open Bechamel

(* Measure one thunk with Bechamel's monotonic clock and return the OLS
   estimate of nanoseconds per run. *)
let time_ns ~name f =
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~stabilize:false
      ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let analysis =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.fold
    (fun _ ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (e :: _) -> e
      | Some [] | None -> acc
      | exception _ -> acc)
    analysis nan

(* Bytes allocated by this domain so far: (minor + major - promoted)
   words times the word size.  The minor count comes from
   [Gc.minor_words], not [Gc.counters]: on OCaml 5.1 the latter counts
   the current minor heap's allocation in bytes / 8 (so
   [Gc.allocated_bytes] reads words over any window without a minor
   collection). *)
let allocated_bytes () =
  let _, promoted, major = Stdlib.Gc.counters () in
  (Stdlib.Gc.minor_words () +. major -. promoted)
  *. float_of_int (Sys.word_size / 8)

let fmt_us ns = Printf.sprintf "%.2f us" (ns /. 1000.)
let fmt_ns ns =
  if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let random_block ?(seed = 7) len =
  let st = Random.State.make [| seed; len |] in
  Bytes.init len (fun _ -> Char.chr (Random.State.int st 256))

let section title =
  Printf.printf "\n%s\n%s\n%s\n%!" (String.make 74 '=') title
    (String.make 74 '=')
