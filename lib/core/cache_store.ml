(* Warm-restart persistence — see cache_store.mli for the policy. *)

module LB = Lower_bound
module Store = Ld_store.Store
module Obs = Ld_obs.Obs

let c_warm = Obs.Counter.make "core.cache_store.warm"
let c_cold = Obs.Counter.make "core.cache_store.cold"
let c_levels_saved = Obs.Counter.make "core.cache_store.levels_saved"

let code_version = "3"

let key ~delta ~level ~algo ~check_views =
  Printf.sprintf "ld-cache/v%s delta=%d level=%d views=%b algo=%s" code_version
    delta level check_views algo

type entry = {
  entry_level : int;
  entry_certificate : LB.certificate;
  entry_probes : LB.probe list;
}

(* ---- level record codec ----

   A level record is its trail entry. Every int is an unsigned LEB128
   varint in minimal form. A record is

     delta level
     trail length (level + 1), then
       level 0:       removed changed
       each level i:  side (0 for G, 1 for H) g-star loop-target
     probe count, then one threshold per probe
     <weight> <weight> views-checked (0 or 1)

   where a weight is the length-prefixed [Q.to_string] text of the
   certificate's g- and h-weight. No graph is written: the trail
   rebuilds every graph of levels 0 … level (Lower_bound.replay), so
   any record decodes and replays on its own.

   Decoding accepts exactly the byte strings encoding produces; anything
   else fails with [Failure], at decode time: truncation, trailing
   bytes, a non-minimal or out-of-range varint, a trail length other
   than level + 1, a side tag other than 0 or 1, a trail the adversary
   could not take ([LB.level_of_trail]: a loop or g-star outside its
   level's graph, delta outside [2, 32], ...), a probe count other than
   the level's, a weight not in canonical form, a views flag other than
   0 or 1. Every count is checked against the bytes left before
   anything is allocated. *)

module Q = Ld_arith.Q

(* Longest accepted weight text; [Q.of_string] is quadratic in it. *)
let max_weight_text = 1024

let put_uint buf i =
  if i < 0 then invalid_arg "Cache_store: negative field";
  let i = ref i in
  while !i >= 0x80 do
    Buffer.add_uint8 buf (!i land 0x7f lor 0x80);
    i := !i lsr 7
  done;
  Buffer.add_uint8 buf !i

let put_weight buf q =
  let text = Q.to_string q in
  if String.length text > max_weight_text then
    invalid_arg "Cache_store: weight text too long";
  put_uint buf (String.length text);
  Buffer.add_string buf text

let entry_to_string e =
  let buf = Buffer.create 64 in
  let int = put_uint buf in
  let c = e.entry_certificate in
  let trail = c.trail in
  if e.entry_level <> c.level || Array.length trail <> c.level + 1 then
    invalid_arg "Cache_store: certificate without a trail to its level";
  if List.exists (fun (p : LB.probe) -> p.probe_level <> c.level) e.entry_probes
  then invalid_arg "Cache_store: probe of another level";
  Array.iteri
    (fun i step ->
      match (step : LB.step) with
      | Base { delta; removed; changed } when i = 0 ->
        int delta;
        int c.level;
        int (Array.length trail);
        int removed;
        int changed
      | Unfold { side; g_star; loop_target } when i > 0 ->
        int (match side with `G -> 0 | `H -> 1);
        int g_star;
        int loop_target
      | Base _ | Unfold _ -> invalid_arg "Cache_store: malformed trail")
    trail;
  int (List.length e.entry_probes);
  List.iter (fun (p : LB.probe) -> int p.prefix_round) e.entry_probes;
  put_weight buf c.g_weight;
  put_weight buf c.h_weight;
  int (if c.views_checked then 1 else 0);
  Buffer.contents buf

let truncated () = failwith "Cache_store: truncated binary record"

type reader = { s : string; mutable pos : int }

let rec get_uint_from r acc shift =
  if r.pos >= String.length r.s then truncated ();
  let b = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then
    if b = 0 then failwith "Cache_store: non-minimal varint"
    else if acc < 0 then failwith "Cache_store: varint out of range"
    else acc
  else if shift >= 56 then failwith "Cache_store: varint too long"
  else get_uint_from r acc (shift + 7)

(* The one-byte case inline; longer varints continue in [get_uint_from]. *)
let get_uint r =
  if r.pos >= String.length r.s then truncated ();
  let b = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  if b < 0x80 then b else get_uint_from r (b land 0x7f) 7

(* A count of items that take at least [width] bytes each. *)
let get_count r ~width =
  let k = get_uint r in
  if k > (String.length r.s - r.pos) / width then truncated ();
  k

let get_weight r =
  let len = get_uint r in
  if len > max_weight_text then failwith "Cache_store: weight text too long";
  if len > String.length r.s - r.pos then truncated ();
  let text = String.sub r.s r.pos len in
  r.pos <- r.pos + len;
  let q = Q.of_string text in
  if not (String.equal (Q.to_string q) text) then
    failwith "Cache_store: non-canonical weight";
  q

let entry_of_string s =
  let decode () =
    let r = { s; pos = 0 } in
    let int () = get_uint r in
    let delta = int () in
    let level = int () in
    (* every trail entry takes at least two bytes *)
    let length = get_count r ~width:2 in
    if length <> level + 1 then failwith "Cache_store: trail length is not level + 1";
    let trail =
      Array.init length (fun i ->
          if i = 0 then
            let removed = int () in
            let changed = int () in
            LB.Base { delta; removed; changed }
          else
            let side =
              match int () with
              | 0 -> `G
              | 1 -> `H
              | _ -> failwith "Cache_store: side tag is not 0 or 1"
            in
            let g_star = int () in
            let loop_target = int () in
            LB.Unfold { side; g_star; loop_target })
    in
    let prefix_rounds = List.init (get_count r ~width:1) (fun _ -> int ()) in
    let g_weight = get_weight r in
    let h_weight = get_weight r in
    let views_checked =
      match int () with
      | 0 -> false
      | 1 -> true
      | _ -> failwith "Cache_store: views flag is not 0 or 1"
    in
    if r.pos <> String.length s then
      failwith "Cache_store: trailing bytes after entry";
    let entry_certificate, entry_probes =
      LB.level_of_trail trail ~g_weight ~h_weight ~views_checked ~prefix_rounds
    in
    { entry_level = level; entry_certificate; entry_probes }
  in
  (* A garbled-but-checksummed payload can trip validation
     ([LB.level_of_trail], [Q.of_string]) with [Invalid_argument] or
     [Division_by_zero]; fold those into the codec's [Failure] contract
     so callers have one corruption signal. *)
  match decode () with
  | e -> e
  | exception Invalid_argument msg ->
    failwith ("Cache_store: invalid binary record: " ^ msg)
  | exception Division_by_zero ->
    failwith "Cache_store: invalid binary record: division by zero"

(* [None] where some probe's level matches no certificate: such a
   construction could not be reloaded faithfully. *)
let level_entries cache =
  match LB.cache_outcome cache with
  | LB.Refuted _ -> None
  | LB.Certified certs ->
    let probes = LB.cache_probes cache in
    let entries =
      List.map
        (fun (c : LB.certificate) ->
          {
            entry_level = c.level;
            entry_certificate = c;
            entry_probes =
              List.filter (fun (p : LB.probe) -> p.probe_level = c.level) probes;
          })
        certs
    in
    let covered =
      List.fold_left (fun acc e -> acc + List.length e.entry_probes) 0 entries
    in
    if covered <> List.length probes then None else Some entries

(* Decode the records of levels 0 … delta-2 and wire them onto one
   replay chain. Each record decodes on its own; [LB.assemble_cache]
   checks their levels and that together they describe one construction
   of [delta]. No graph is built. *)
let assemble_records ~delta ~algo_name ~check_views records =
  if delta < 2 || List.length records <> delta - 1 then
    failwith
      (Printf.sprintf "Cache_store: %d level records for delta %d"
         (List.length records) delta);
  let entries = List.map entry_of_string records in
  let certs = List.map (fun e -> e.entry_certificate) entries in
  let probes = List.concat_map (fun e -> e.entry_probes) entries in
  try
    LB.assemble_cache ~delta ~algo_name ~check_views ~probes
      ~outcome:(LB.Certified certs)
  with Invalid_argument msg -> failwith msg

let save_cache store cache =
  match level_entries cache with
  | None -> false
  | Some entries ->
    let delta = LB.cache_delta cache in
    let algo = LB.cache_algo_name cache in
    let check_views = LB.cache_check_views cache in
    List.iter
      (fun e ->
        Store.put store
          ~key:(key ~delta ~level:e.entry_level ~algo ~check_views)
          (entry_to_string e);
        Obs.Counter.incr c_levels_saved)
      entries;
    true

let load_cache store ~check_views ~delta ~algo_name =
  if delta < 2 then invalid_arg "Cache_store.load_cache: delta < 2";
  let rec fetch acc level =
    if level > delta - 2 then Some (List.rev acc)
    else
      match Store.get store ~key:(key ~delta ~level ~algo:algo_name ~check_views) with
      | None -> None
      | Some payload -> fetch (payload :: acc) (level + 1)
  in
  match fetch [] 0 with
  | None -> None
  | Some records -> (
    match assemble_records ~delta ~algo_name ~check_views records with
    | cache -> Some cache
    | exception Failure msg ->
      raise
        (Store.Store_corrupt
           (Printf.sprintf "%s: %s"
              (key ~delta ~level:(delta - 2) ~algo:algo_name ~check_views)
              msg)))

(* ---- certificate files: one chain's records (see cache_store.mli) ---- *)

let chain_header = Printf.sprintf "ld-chain/v%s\n" code_version

let chain_to_string cache =
  match level_entries cache with
  | None -> invalid_arg "Cache_store.chain_to_string: no certified chain"
  | Some entries ->
    let buf = Buffer.create 512 in
    Buffer.add_string buf chain_header;
    put_uint buf (List.length entries);
    List.iter
      (fun e ->
        let record = entry_to_string e in
        put_uint buf (String.length record);
        Buffer.add_string buf record)
      entries;
    Buffer.contents buf

let chain_of_string ~delta s =
  if not (String.starts_with ~prefix:chain_header s) then
    failwith "Cache_store: not a certificate chain of this code version";
  let r = { s; pos = String.length chain_header } in
  (* every record takes at least its one-byte length *)
  let count = get_count r ~width:1 in
  let records =
    List.init count (fun _ ->
        let len = get_count r ~width:1 in
        let record = String.sub s r.pos len in
        r.pos <- r.pos + len;
        record)
  in
  if r.pos <> String.length s then
    failwith "Cache_store: trailing bytes after the chain";
  assemble_records ~delta ~algo_name:"" ~check_views:true records

let build_cache ?store ?(check_views = true) ~delta (algo : LB.algorithm) =
  match store with
  | None -> LB.build_cache ~check_views ~delta algo
  | Some store -> (
    if delta < 2 then invalid_arg "Cache_store.build_cache: delta < 2";
    let warm =
      match load_cache store ~check_views ~delta ~algo_name:algo.name with
      | warm -> warm
      | exception Store.Store_corrupt _ ->
        (* Self-heal: [store.corrupt] already counted the incident;
           drop the damaged level records so the cold re-save below
           publishes clean ones, and recompute. *)
        for level = 0 to delta - 2 do
          Store.delete store
            ~key:(key ~delta ~level ~algo:algo.name ~check_views)
        done;
        None
    in
    match warm with
    | Some cache ->
      Obs.Counter.incr c_warm;
      cache
    | None ->
      Obs.Counter.incr c_cold;
      let cache = LB.build_cache ~check_views ~delta algo in
      let (_ : bool) = save_cache store cache in
      cache)
