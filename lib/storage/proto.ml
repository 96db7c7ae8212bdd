type tid = { seq : int; blk : int; client : int }

let tid_compare a b =
  let c = compare a.client b.client in
  if c <> 0 then c
  else
    let c = compare a.seq b.seq in
    if c <> 0 then c else compare a.blk b.blk

let tid_to_string t = Printf.sprintf "<%d,%d,c%d>" t.seq t.blk t.client

type lmode = Unl | L0 | L1 | Exp
type opmode = Norm | Recons | Init

let lmode_to_string = function
  | Unl -> "UNL"
  | L0 -> "L0"
  | L1 -> "L1"
  | Exp -> "EXP"

let opmode_to_string = function
  | Norm -> "NORM"
  | Recons -> "RECONS"
  | Init -> "INIT"

type add_status = Add_ok | Add_order | Add_fail
type check_status = Ck_init | Ck_gc | Ck_nochange

(* One retained (or shipped) add: the write's tid, the data position it
   changed, the epoch the logging node applied it under, and the delta
   payload with the coefficient already folded into it ([d_alpha] = the
   logging node's own coefficient for unicast adds, 1 for broadcast adds
   whose raw diff was logged before node-side scaling).  A repairer
   rescales [d_dv] by [target_alpha / d_alpha] before shipping. *)
type delta_entry = {
  d_tid : tid;
  d_dblk : int;
  d_epoch : int;
  d_alpha : int;
  d_dv : bytes;
}

type request =
  | Read
  | Read_checked
  | Swap of { v : bytes; ntid : tid }
  | Add of { dv : bytes; ntid : tid; otid : tid option; epoch : int }
  | Add_bcast of { dv : bytes; dblk : int; ntid : tid; otid : tid option; epoch : int }
  | Checktid of { ntid : tid; otid : tid }
  | Trylock of lmode
  | Setlock of lmode
  | Get_state
  | Getrecent of lmode
  | Reconstruct of { cset : int list; blk : bytes }
  | Finalize of { epoch : int }
  | Gc_old of tid list
  | Gc_recent of tid list
  | Gc_many of { phase : [ `Old | `Recent ]; slots : (int * tid list) list }
  | Probe of { older_than : float }
  | Get_meta
  | Mark_init
  | Delta_probe
  | Get_delta of { since_epoch : int }
  | Apply_delta of {
      entries : delta_entry list;
      absorbed : tid list;
          (* writes whose effect the target already applied and which
             some finalize since folded into the base: their list
             entries must be dropped, not their payloads re-added *)
      from_epoch : int;
      to_epoch : int;
    }

type state_view = {
  st_opmode : opmode;
  st_epoch : int;
  st_recons_set : int list option;
  st_oldlist : tid list;
  st_recentlist : tid list;
  st_block : bytes option;
}

type delta_probe = {
  dp_opmode : opmode;
  dp_epoch : int;
  dp_valid : bool; (* digest-valid at the slot's own sealed epoch *)
  dp_recent : tid list; (* recentlist: writes possibly in flight *)
  dp_old : tid list; (* oldlist: completed-everywhere writes *)
  dp_tombs : tid list; (* gc-dropped tids retained since last seal *)
  dp_tombs_overflow : bool;
  dp_log_floor : int; (* epochs >= floor fully covered by the log *)
  dp_log_bytes : int;
}

type response =
  | R_read of { block : bytes option; lmode : lmode }
  | R_read_checked of {
      block : bytes option;
      meta : Checksum.record option;
      epoch : int;
      lmode : lmode;
    }
  | R_meta of { opmode : opmode; epoch : int; self : Checksum.status option }
  | R_swap of { block : bytes option; epoch : int; otid : tid option; lmode : lmode }
  | R_add of { status : add_status; opmode : opmode; lmode : lmode }
  | R_check of check_status
  | R_trylock of { ok : bool; oldlmode : lmode }
  | R_ack
  | R_state of state_view
  | R_recent of tid list
  | R_reconstruct of { epoch : int }
  | R_gc of { ok : bool }
  | R_gc_many of { busy : int list }
  | R_probe of { stale : int list; init : int list }
  | R_delta_probe of delta_probe
  | R_delta of { entries : delta_entry list; to_epoch : int; complete : bool }
  | R_delta_applied of { ok : bool; applied : int; epoch : int }

(* Wire-size accounting.  tid = three 32-bit ints; modes and statuses a
   byte each; epochs 4 bytes; blocks at their actual length. *)
let tid_bytes = 12
let int_bytes = 4
let mode_bytes = 1
let meta_bytes = Checksum.bytes_size

let opt_bytes size = function None -> 1 | Some _ -> 1 + size
let block_bytes b = Bytes.length b
let list_bytes size l = 4 + (size * List.length l)

let delta_entry_bytes e =
  tid_bytes + int_bytes + int_bytes + int_bytes + block_bytes e.d_dv

let delta_entries_bytes l =
  List.fold_left (fun a e -> a + delta_entry_bytes e) 4 l

let request_bytes = function
  | Read | Read_checked | Get_meta | Mark_init -> 1
  | Swap { v; _ } -> 1 + block_bytes v + tid_bytes
  | Add { dv; otid; _ } ->
    1 + block_bytes dv + tid_bytes + opt_bytes tid_bytes otid + int_bytes
  | Add_bcast { dv; otid; _ } ->
    1 + block_bytes dv + int_bytes + tid_bytes + opt_bytes tid_bytes otid
    + int_bytes
  | Checktid _ -> 1 + (2 * tid_bytes)
  | Trylock _ | Setlock _ -> 1 + mode_bytes
  | Get_state -> 1
  | Getrecent _ -> 1 + mode_bytes
  | Reconstruct { cset; blk } -> 1 + list_bytes int_bytes cset + block_bytes blk
  | Finalize _ -> 1 + int_bytes
  | Gc_old tids | Gc_recent tids -> 1 + list_bytes tid_bytes tids
  | Gc_many { slots; _ } ->
    List.fold_left
      (fun a (_, tids) -> a + int_bytes + list_bytes tid_bytes tids)
      (1 + mode_bytes + 4) slots
  | Probe _ -> 1 + int_bytes
  | Delta_probe -> 1
  | Get_delta _ -> 1 + int_bytes
  | Apply_delta { entries; absorbed; _ } ->
    1 + delta_entries_bytes entries + list_bytes tid_bytes absorbed
    + (2 * int_bytes)

let response_bytes = function
  | R_read { block; _ } -> 1 + opt_bytes 0 block
                           + (match block with Some b -> block_bytes b | None -> 0)
                           + mode_bytes
  | R_read_checked { block; meta; _ } ->
    1
    + (match block with Some b -> 1 + block_bytes b | None -> 1)
    + opt_bytes meta_bytes meta + int_bytes + mode_bytes
  | R_meta { self; _ } -> 1 + mode_bytes + int_bytes + opt_bytes mode_bytes self
  | R_swap { block; otid; _ } ->
    1
    + (match block with Some b -> 1 + block_bytes b | None -> 1)
    + int_bytes + opt_bytes tid_bytes otid + mode_bytes
  | R_add _ -> 1 + (3 * mode_bytes)
  | R_check _ -> 1 + mode_bytes
  | R_trylock _ -> 1 + (2 * mode_bytes)
  | R_ack -> 1
  | R_state { st_recons_set; st_oldlist; st_recentlist; st_block; _ } ->
    1 + mode_bytes + int_bytes
    + (match st_recons_set with Some s -> 1 + list_bytes int_bytes s | None -> 1)
    + list_bytes tid_bytes st_oldlist
    + list_bytes tid_bytes st_recentlist
    + (match st_block with Some b -> 1 + block_bytes b | None -> 1)
  | R_recent tids -> 1 + list_bytes tid_bytes tids
  | R_reconstruct _ -> 1 + int_bytes
  | R_gc _ -> 1 + mode_bytes
  | R_gc_many { busy } -> 1 + list_bytes int_bytes busy
  | R_probe { stale; init } ->
    1 + list_bytes int_bytes stale + list_bytes int_bytes init
  | R_delta_probe { dp_recent; dp_old; dp_tombs; _ } ->
    1 + mode_bytes + int_bytes + 1
    + list_bytes tid_bytes dp_recent
    + list_bytes tid_bytes dp_old
    + list_bytes tid_bytes dp_tombs
    + 1 + int_bytes + int_bytes
  | R_delta { entries; _ } -> 1 + delta_entries_bytes entries + int_bytes + 1
  | R_delta_applied _ -> 1 + 1 + int_bytes + int_bytes

(* Human-readable forms for trace events and checker diagnostics.
   Blocks are rendered as their sizes — payload bytes are noise in a
   trace and can be megabytes. *)
let pp_tid ppf t = Format.fprintf ppf "<%d,%d,c%d>" t.seq t.blk t.client

let pp_opt_tid ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some t -> pp_tid ppf t

let pp_tid_list ppf tids =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
       pp_tid)
    tids

let pp_request ppf = function
  | Read -> Format.pp_print_string ppf "read"
  | Read_checked -> Format.pp_print_string ppf "read_checked"
  | Get_meta -> Format.pp_print_string ppf "get_meta"
  | Mark_init -> Format.pp_print_string ppf "mark_init"
  | Swap { v; ntid } ->
    Format.fprintf ppf "swap{%dB ntid=%a}" (Bytes.length v) pp_tid ntid
  | Add { dv; ntid; otid; epoch } ->
    Format.fprintf ppf "add{%dB ntid=%a otid=%a epoch=%d}" (Bytes.length dv)
      pp_tid ntid pp_opt_tid otid epoch
  | Add_bcast { dv; dblk; ntid; otid; epoch } ->
    Format.fprintf ppf "add_bcast{%dB blk=%d ntid=%a otid=%a epoch=%d}"
      (Bytes.length dv) dblk pp_tid ntid pp_opt_tid otid epoch
  | Checktid { ntid; otid } ->
    Format.fprintf ppf "checktid{ntid=%a otid=%a}" pp_tid ntid pp_tid otid
  | Trylock m -> Format.fprintf ppf "trylock{%s}" (lmode_to_string m)
  | Setlock m -> Format.fprintf ppf "setlock{%s}" (lmode_to_string m)
  | Get_state -> Format.pp_print_string ppf "get_state"
  | Getrecent m -> Format.fprintf ppf "getrecent{%s}" (lmode_to_string m)
  | Reconstruct { cset; blk } ->
    Format.fprintf ppf "reconstruct{cset=[%a] %dB}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
         Format.pp_print_int)
      cset (Bytes.length blk)
  | Finalize { epoch } -> Format.fprintf ppf "finalize{epoch=%d}" epoch
  | Gc_old tids -> Format.fprintf ppf "gc_old%a" pp_tid_list tids
  | Gc_recent tids -> Format.fprintf ppf "gc_recent%a" pp_tid_list tids
  | Gc_many { phase; slots } ->
    Format.fprintf ppf "gc_%s_many{%a}"
      (match phase with `Old -> "old" | `Recent -> "recent")
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
         (fun ppf (slot, tids) ->
           Format.fprintf ppf "%d:%a" slot pp_tid_list tids))
      slots
  | Probe { older_than } -> Format.fprintf ppf "probe{>%.3fs}" older_than
  | Delta_probe -> Format.pp_print_string ppf "delta_probe"
  | Get_delta { since_epoch } ->
    Format.fprintf ppf "get_delta{since=%d}" since_epoch
  | Apply_delta { entries; absorbed; from_epoch; to_epoch } ->
    Format.fprintf ppf "apply_delta{%d entries %dB absorbed=%d e%d->e%d}"
      (List.length entries)
      (delta_entries_bytes entries)
      (List.length absorbed) from_epoch to_epoch

let pp_response ppf = function
  | R_read { block; lmode } ->
    Format.fprintf ppf "r_read{%s lmode=%s}"
      (match block with Some b -> Printf.sprintf "%dB" (Bytes.length b) | None -> "-")
      (lmode_to_string lmode)
  | R_read_checked { block; meta; epoch; lmode } ->
    Format.fprintf ppf "r_read_checked{%s meta=%s epoch=%d lmode=%s}"
      (match block with Some b -> Printf.sprintf "%dB" (Bytes.length b) | None -> "-")
      (match meta with
      | Some m -> Printf.sprintf "e%d" m.Checksum.epoch
      | None -> "-")
      epoch (lmode_to_string lmode)
  | R_meta { opmode; epoch; self } ->
    Format.fprintf ppf "r_meta{%s epoch=%d self=%s}" (opmode_to_string opmode)
      epoch
      (match self with
      | Some s -> Format.asprintf "%a" Checksum.pp_status s
      | None -> "-")
  | R_swap { block; epoch; otid; lmode } ->
    Format.fprintf ppf "r_swap{%s epoch=%d otid=%a lmode=%s}"
      (match block with Some b -> Printf.sprintf "%dB" (Bytes.length b) | None -> "-")
      epoch pp_opt_tid otid (lmode_to_string lmode)
  | R_add { status; opmode; lmode } ->
    Format.fprintf ppf "r_add{%s %s %s}"
      (match status with
      | Add_ok -> "ok"
      | Add_order -> "order"
      | Add_fail -> "fail")
      (opmode_to_string opmode) (lmode_to_string lmode)
  | R_check s ->
    Format.fprintf ppf "r_check{%s}"
      (match s with Ck_init -> "init" | Ck_gc -> "gc" | Ck_nochange -> "nochange")
  | R_trylock { ok; oldlmode } ->
    Format.fprintf ppf "r_trylock{%b was=%s}" ok (lmode_to_string oldlmode)
  | R_ack -> Format.pp_print_string ppf "r_ack"
  | R_state { st_opmode; st_epoch; st_recons_set; st_oldlist; st_recentlist; st_block } ->
    Format.fprintf ppf "r_state{%s e%d%s old=%a recent=%a %s}"
      (opmode_to_string st_opmode)
      st_epoch
      (match st_recons_set with
      | Some s -> Printf.sprintf " cset=[%s]" (String.concat ";" (List.map string_of_int s))
      | None -> "")
      pp_tid_list st_oldlist pp_tid_list st_recentlist
      (match st_block with Some b -> Printf.sprintf "%dB" (Bytes.length b) | None -> "-")
  | R_recent tids -> Format.fprintf ppf "r_recent%a" pp_tid_list tids
  | R_reconstruct { epoch } -> Format.fprintf ppf "r_reconstruct{epoch=%d}" epoch
  | R_gc { ok } -> Format.fprintf ppf "r_gc{%b}" ok
  | R_gc_many { busy } ->
    Format.fprintf ppf "r_gc_many{busy=[%s]}"
      (String.concat ";" (List.map string_of_int busy))
  | R_probe { stale; init } ->
    let ints l = String.concat ";" (List.map string_of_int l) in
    Format.fprintf ppf "r_probe{stale=[%s] init=[%s]}" (ints stale) (ints init)
  | R_delta_probe { dp_opmode; dp_epoch; dp_valid; dp_recent; dp_old; dp_tombs;
                    dp_tombs_overflow; dp_log_floor; dp_log_bytes } ->
    Format.fprintf ppf
      "r_delta_probe{%s e%d valid=%b applied=%d tombs=%d%s floor=%d log=%dB}"
      (opmode_to_string dp_opmode)
      dp_epoch dp_valid
      (List.length dp_recent + List.length dp_old)
      (List.length dp_tombs)
      (if dp_tombs_overflow then "(ovfl)" else "")
      dp_log_floor dp_log_bytes
  | R_delta { entries; to_epoch; complete } ->
    Format.fprintf ppf "r_delta{%d entries %dB to=e%d complete=%b}"
      (List.length entries)
      (delta_entries_bytes entries)
      to_epoch complete
  | R_delta_applied { ok; applied; epoch } ->
    Format.fprintf ppf "r_delta_applied{ok=%b applied=%d epoch=%d}" ok applied
      epoch

let request_tag = function
  | Read -> "read"
  | Read_checked -> "read_checked"
  | Get_meta -> "get_meta"
  | Mark_init -> "mark_init"
  | Swap _ -> "swap"
  | Add _ -> "add"
  | Add_bcast _ -> "add_bcast"
  | Checktid _ -> "checktid"
  | Trylock _ -> "trylock"
  | Setlock _ -> "setlock"
  | Get_state -> "get_state"
  | Getrecent _ -> "getrecent"
  | Reconstruct _ -> "reconstruct"
  | Finalize _ -> "finalize"
  | Gc_old _ -> "gc_old"
  | Gc_recent _ -> "gc_recent"
  | Gc_many { phase = `Old; _ } -> "gc_old_many"
  | Gc_many { phase = `Recent; _ } -> "gc_recent_many"
  | Probe _ -> "probe"
  | Delta_probe -> "delta_probe"
  | Get_delta _ -> "get_delta"
  | Apply_delta _ -> "apply_delta"
