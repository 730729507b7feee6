(* Warm-restart persistence — see cache_store.mli for the policy. *)

module LB = Lower_bound
module Store = Ld_store.Store
module Obs = Ld_obs.Obs

let c_warm = Obs.Counter.make "core.cache_store.warm"
let c_cold = Obs.Counter.make "core.cache_store.cold"
let c_levels_saved = Obs.Counter.make "core.cache_store.levels_saved"

let code_version = "2"

let key ~delta ~level ~algo ~check_views =
  Printf.sprintf "ld-cache/v%s delta=%d level=%d views=%b algo=%s" code_version
    delta level check_views algo

type entry = {
  entry_level : int;
  entry_certificate : LB.certificate;
  entry_probes : LB.probe list;
}

(* ---- level record codec ----

   Every int is an unsigned LEB128 varint in minimal form. A record is

     level
     certificate:  level colour <graph> <graph> g-node h-node g-loop
                   h-loop <weight> <weight> views-checked (0 or 1)
     probe count, then per probe:  level <graph> <weight>*

   where a probe's weights are one per edge, then one per loop, of its
   graph. <graph> and <weight> are back-reference slots: tag 0 opens a
   literal, tag k >= 1 names the record's k-th literal of that kind. A
   graph literal is n, the edge count, (u v colour) per edge, the loop
   count, (node colour) per loop; a weight literal is the
   length-prefixed [Q.to_string] text.

   A level's certificate graphs are two of its probe graphs (the
   unfolded side and the mixture), so the encoder, which shares graphs
   by physical identity, writes three graph literals per level instead
   of five, and the decoder hands back one physically shared graph per
   literal, as the cold construction has them. Weights are shared by
   value: the greedy adversary's outputs take two distinct values.

   Decoding accepts exactly the byte strings encoding produces; anything
   else fails with [Failure]: truncation, trailing bytes, a non-minimal
   or out-of-range varint, a reference to a literal not yet seen, a
   weight literal that repeats an earlier one or is not in canonical
   form, a views flag other than 0 or 1. Every count is checked against
   the bytes left before anything is allocated, and a graph literal may
   not name more nodes than it has darts (every adversary node carries
   a loop or an edge; the encoder refuses such graphs too), so a hostile
   length allocates at most in proportion to the record. *)

module Q = Ld_arith.Q
module Ec = Ld_models.Ec
module Fm = Ld_fm.Fm

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

module Qtbl = Hashtbl.Make (struct
  type t = Q.t

  let equal = Q.equal
  let hash = Q.hash
end)

type encoder = {
  buf : Buffer.t;
  mutable graphs : (Ec.t * int) list;  (* literal number, newest first *)
  weights : int Qtbl.t;
}

let put_graph enc g =
  match List.find_opt (fun (h, _) -> h == g) enc.graphs with
  | Some (_, k) -> put_uint enc.buf k
  | None ->
    let buf = enc.buf in
    let c = Ec.columns g in
    if Ec.n g > (2 * Ec.num_edges g) + Ec.num_loops g then
      invalid_arg "Cache_store: graph with more nodes than darts";
    enc.graphs <- (g, List.length enc.graphs + 1) :: enc.graphs;
    put_uint buf 0;
    put_uint buf (Ec.n g);
    put_uint buf (Ec.num_edges g);
    for j = 0 to Ec.num_edges g - 1 do
      put_uint buf c.edge_u.(j);
      put_uint buf c.edge_v.(j);
      put_uint buf c.edge_colour.(j)
    done;
    put_uint buf (Ec.num_loops g);
    for j = 0 to Ec.num_loops g - 1 do
      put_uint buf c.loop_node.(j);
      put_uint buf c.loop_colour.(j)
    done

let put_weight enc q =
  match Qtbl.find_opt enc.weights q with
  | Some k -> put_uint enc.buf k
  | None ->
    let text = Q.to_string q in
    if String.length text > max_weight_text then
      invalid_arg "Cache_store: weight text too long";
    Qtbl.add enc.weights q (Qtbl.length enc.weights + 1);
    put_uint enc.buf 0;
    put_uint enc.buf (String.length text);
    Buffer.add_string enc.buf text

let entry_to_string e =
  let enc = { buf = Buffer.create 4096; graphs = []; weights = Qtbl.create 8 } in
  let int = put_uint enc.buf in
  let c = e.entry_certificate in
  int e.entry_level;
  int c.level;
  int c.colour;
  put_graph enc c.g_graph;
  put_graph enc c.h_graph;
  int c.g_node;
  int c.h_node;
  int c.g_loop;
  int c.h_loop;
  put_weight enc c.g_weight;
  put_weight enc c.h_weight;
  int (if c.views_checked then 1 else 0);
  int (List.length e.entry_probes);
  List.iter
    (fun (p : LB.probe) ->
      int p.probe_level;
      put_graph enc p.probe_graph;
      for j = 0 to Ec.num_edges p.probe_graph - 1 do
        put_weight enc (Fm.edge_weight p.probe_base j)
      done;
      for j = 0 to Ec.num_loops p.probe_graph - 1 do
        put_weight enc (Fm.loop_weight p.probe_base j)
      done)
    e.entry_probes;
  Buffer.contents enc.buf

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

(* The literals of one kind seen so far in a record. *)
type 'a table = { mutable items : 'a array; mutable len : int }

let get_slot r table literal =
  match get_uint r with
  | 0 ->
    let x = literal () in
    if table.len = Array.length table.items then begin
      let grown = Array.make (Stdlib.max 4 (2 * table.len)) x in
      Array.blit table.items 0 grown 0 table.len;
      table.items <- grown
    end;
    table.items.(table.len) <- x;
    table.len <- table.len + 1;
    x
  | k ->
    if k > table.len then failwith "Cache_store: reference to an unseen literal";
    table.items.(k - 1)

let graph_literal r () =
  let n = get_uint r in
  let ne = get_count r ~width:3 in
  let edge_u = Array.make ne 0 in
  let edge_v = Array.make ne 0 in
  let edge_colour = Array.make ne 0 in
  for j = 0 to ne - 1 do
    edge_u.(j) <- get_uint r;
    edge_v.(j) <- get_uint r;
    edge_colour.(j) <- get_uint r
  done;
  let nl = get_count r ~width:2 in
  let loop_node = Array.make nl 0 in
  let loop_colour = Array.make nl 0 in
  for j = 0 to nl - 1 do
    loop_node.(j) <- get_uint r;
    loop_colour.(j) <- get_uint r
  done;
  if n > (2 * ne) + nl then failwith "Cache_store: graph with more nodes than darts";
  Ec.of_columns ~n { edge_u; edge_v; edge_colour; loop_node; loop_colour }

let weight_literal r texts () =
  let len = get_uint r in
  if len > max_weight_text then failwith "Cache_store: weight text too long";
  if len > String.length r.s - r.pos then truncated ();
  let text = String.sub r.s r.pos len in
  r.pos <- r.pos + len;
  if Hashtbl.mem texts text then failwith "Cache_store: repeated weight literal";
  Hashtbl.add texts text ();
  let q = Q.of_string text in
  if not (String.equal (Q.to_string q) text) then
    failwith "Cache_store: non-canonical weight";
  q

let entry_of_string s =
  let decode () =
    let r = { s; pos = 0 } in
    let graphs = { items = [||]; len = 0 } in
    let weights = { items = [||]; len = 0 } in
    let texts = Hashtbl.create 8 in
    let int () = get_uint r in
    let graph_literal = graph_literal r in
    let weight_literal = weight_literal r texts in
    let graph () = get_slot r graphs graph_literal in
    let weight () = get_slot r weights weight_literal in
    let entry_level = int () in
    let level = int () in
    let colour = int () in
    let g_graph = graph () in
    let h_graph = graph () in
    let g_node = int () in
    let h_node = int () in
    let g_loop = int () in
    let h_loop = int () in
    let g_weight = weight () in
    let h_weight = weight () in
    let views_checked =
      match int () with
      | 0 -> false
      | 1 -> true
      | _ -> failwith "Cache_store: views flag is not 0 or 1"
    in
    let entry_certificate =
      {
        LB.level;
        colour;
        g_graph;
        h_graph;
        g_node;
        h_node;
        g_loop;
        h_loop;
        g_weight;
        h_weight;
        views_checked;
      }
    in
    let entry_probes =
      List.init (get_count r ~width:2) (fun _ ->
          let probe_level = int () in
          let probe_graph = graph () in
          let edge_w = Array.init (Ec.num_edges probe_graph) (fun _ -> weight ()) in
          let loop_w = Array.init (Ec.num_loops probe_graph) (fun _ -> weight ()) in
          { LB.probe_level; probe_graph; probe_base = Fm.create probe_graph ~edge_w ~loop_w })
    in
    if r.pos <> String.length s then
      failwith "Cache_store: trailing bytes after entry";
    { entry_level; entry_certificate; entry_probes }
  in
  (* A garbled-but-checksummed payload can trip constructor validation
     ([Ec.of_columns], [Q.of_string]) with [Invalid_argument] or
     [Division_by_zero]; fold those into the codec's [Failure] contract
     so callers have one corruption signal. *)
  match decode () with
  | e -> e
  | exception Invalid_argument msg ->
    failwith ("Cache_store: invalid binary record: " ^ msg)
  | exception Division_by_zero ->
    failwith "Cache_store: invalid binary record: division by zero"

let save_cache store cache =
  match LB.cache_outcome cache with
  | LB.Refuted _ -> false
  | LB.Certified certs ->
    let delta = LB.cache_delta cache in
    let algo = LB.cache_algo_name cache in
    let check_views = LB.cache_check_views cache in
    let probes = LB.cache_probes cache in
    let grouped =
      List.map
        (fun (c : LB.certificate) ->
          ( c,
            List.filter
              (fun (p : LB.probe) -> p.probe_level = c.level)
              probes ))
        certs
    in
    let covered =
      List.fold_left (fun acc (_, ps) -> acc + List.length ps) 0 grouped
    in
    if covered <> List.length probes then
      (* Some probe's level matches no certificate — the partition
         assumption the warm path depends on is broken; refuse to
         persist a construction we could not faithfully reload. *)
      false
    else begin
      List.iter
        (fun ((c : LB.certificate), entry_probes) ->
          let payload =
            entry_to_string
              {
                entry_level = c.level;
                entry_certificate = c;
                entry_probes;
              }
          in
          Store.put store
            ~key:(key ~delta ~level:c.level ~algo ~check_views)
            payload;
          Obs.Counter.incr c_levels_saved)
        grouped;
      true
    end

let load_cache store ~check_views ~delta ~algo_name =
  if delta < 2 then invalid_arg "Cache_store.load_cache: delta < 2";
  let corrupt k msg =
    raise (Store.Store_corrupt (Printf.sprintf "%s: %s" k msg))
  in
  let rec fetch acc level =
    if level > delta - 2 then Some (List.rev acc)
    else begin
      let k = key ~delta ~level ~algo:algo_name ~check_views in
      match Store.get store ~key:k with
      | None -> None
      | Some payload ->
        let e =
          match entry_of_string payload with
          | e -> e
          | exception Failure msg -> corrupt k msg
        in
        if e.entry_level <> level then corrupt k "entry level mismatch";
        fetch (e :: acc) (level + 1)
    end
  in
  match fetch [] 0 with
  | None -> None
  | Some entries ->
    let certs = List.map (fun e -> e.entry_certificate) entries in
    let probes = List.concat_map (fun e -> e.entry_probes) entries in
    Some
      (LB.assemble_cache ~delta ~algo_name ~check_views ~probes
         ~outcome:(LB.Certified certs))

let build_cache ?store ?(check_views = true) ?(incremental_views = true)
    ~delta (algo : LB.algorithm) =
  match store with
  | None -> LB.build_cache ~check_views ~incremental_views ~delta algo
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
      let cache = LB.build_cache ~check_views ~incremental_views ~delta algo in
      let (_ : bool) = save_cache store cache in
      cache)
