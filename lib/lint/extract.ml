(* Per-unit summary extraction from a typed tree.

   Works on the [Typedtree.structure] stored in a .cmt, so name
   resolution is the compiler's own: a call is attributed to the
   defining unit even through `include`, library wrapper modules and
   local module aliases. The typed paths print with their head module
   unexpanded ("Obs.Counter.make" after `module Obs = Ld_obs.Obs`), so
   the extractor keeps two stamp tables — module aliases and locally
   defined structure modules — and expands heads through them; unit
   names are then normalised ("Ld_core__Pool" -> Ld_core.Pool) into
   the canonical dotted keys the call graph is built over.

   Two conventions shape what enters a summary:

   - a direct effect at a site carrying a reasoned `ld-lint: allow`
     for a rule the effect would trigger is *sanctioned* and never
     enters a summary — acknowledged sources must not re-taint every
     caller (the allow is marked used, so it is not stale);
   - lib/obs units contribute no clock/randomness effects (the
     observability layer owns the clock), and calls into Ld_obs are
     later dropped by the graph for the same reason.

   Effects of a closure literal are attributed both to a synthetic
   node (when the closure is a machine transition field or a pool
   task, i.e. an analysis entry) and to the function that creates it.
   The latter is a deliberate over-approximation: machines are records
   of closures, and charging construction time is what lets taint flow
   from `let make () = { step = (fun ...) }` to its callers. *)

(* ---------- path normalisation ---------- *)

(* "Ld_core__Pool" -> ["Ld_core"; "Pool"]; "Ld_lint__" -> ["Ld_lint"];
   "Dune__exe__Ld" -> ["Dune"; "exe"; "Ld"]. *)
let split_unit name =
  let n = String.length name in
  let out = ref [] and start = ref 0 in
  let flush stop =
    if stop > !start then out := String.sub name !start (stop - !start) :: !out
  in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      flush !i;
      i := !i + 2;
      start := !i
    end
    else incr i
  done;
  flush n;
  List.rev !out

let normalize segs =
  match List.concat_map split_unit segs with
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | l -> l

(* ---------- extraction context ---------- *)

type ctx = {
  suppress : Suppress.t;
  is_obs : bool;
  (* Ident.unique_name -> expanded segments, for `module M = Path` *)
  aliases : (string, string list) Hashtbl.t;
  (* Ident.unique_name -> segments, for `module M = struct .. end` *)
  locals : (string, string list) Hashtbl.t;
  (* Ident.unique_name of a top-level value -> its node's dotted key *)
  top_values : (string, string) Hashtbl.t;
  (* one synthetic node per source location *)
  synth_seen : (string * int * int, unit) Hashtbl.t;
  mutable fns : Summary.fn list; (* reversed *)
  mutable refs : Summary.entry_ref list; (* reversed *)
}

let loc_of (l : Location.t) =
  let p = l.Location.loc_start in
  {
    Summary.l_file = p.Lexing.pos_fname;
    l_line = p.Lexing.pos_lnum;
    l_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
  }

let rec module_segs ctx (p : Path.t) : string list =
  match p with
  | Path.Pident id -> (
    let u = Ident.unique_name id in
    match Hashtbl.find_opt ctx.aliases u with
    | Some segs -> segs
    | None -> (
      match Hashtbl.find_opt ctx.locals u with
      | Some segs -> segs
      | None -> [ Ident.name id ]))
  | Path.Pdot (m, s) -> module_segs ctx m @ [ s ]
  | Path.Papply (a, _) -> module_segs ctx a
  | _ -> []

type resolved = Global of string list | Local_value

let resolve_value ctx (p : Path.t) =
  match p with
  | Path.Pident id -> (
    match Hashtbl.find_opt ctx.top_values (Ident.unique_name id) with
    | Some key -> Global (String.split_on_char '.' key)
    | None -> Local_value)
  | Path.Pdot (m, s) -> Global (normalize (module_segs ctx m @ [ s ]))
  | _ -> Local_value

(* ---------- effect classification ---------- *)

let io_heads =
  [
    [ "print_string" ]; [ "print_endline" ]; [ "print_newline" ];
    [ "print_int" ]; [ "print_char" ]; [ "print_float" ]; [ "prerr_string" ];
    [ "prerr_endline" ]; [ "read_line" ]; [ "read_int" ]; [ "open_in" ];
    [ "open_out" ]; [ "output_string" ]; [ "output_char" ]; [ "output_value" ];
    [ "input_line" ]; [ "input_value" ]; [ "exit" ];
    [ "Printf"; "printf" ]; [ "Printf"; "eprintf" ]; [ "Printf"; "fprintf" ];
    [ "Format"; "printf" ]; [ "Format"; "eprintf" ];
  ]

let classify segs : (Summary.kind * string) option =
  let dotted = String.concat "." segs in
  match segs with
  | "Random" :: rest
    when rest <> [] && (match rest with "State" :: _ -> false | _ -> true) ->
    Some (Summary.Nondet, dotted)
  | [ "Sys"; "time" ]
  | [ "Unix"; ("time" | "gettimeofday" | "gmtime" | "localtime") ] ->
    Some (Summary.Reads_clock, dotted)
  | ("Monotonic_clock" | "Mtime_clock") :: _ :: _ ->
    Some (Summary.Reads_clock, dotted)
  | "Unix" :: _ :: _ -> Some (Summary.Performs_io, dotted)
  | ("In_channel" | "Out_channel") :: _ :: _ -> Some (Summary.Performs_io, dotted)
  | _ -> if List.mem segs io_heads then Some (Summary.Performs_io, dotted) else None

(* If the application of head [segs] to [args] writes mutable state,
   return the written expression and a description. Atomic.* and
   Domain.DLS.* are the sanctioned cross-domain primitives and are
   deliberately absent. *)
let mutation_of segs args =
  let nolabel =
    List.filter_map
      (fun (l, a) ->
        match (l, a) with Asttypes.Nolabel, Some a -> Some a | _ -> None)
      args
  in
  let arg n what = Option.map (fun a -> (a, what)) (List.nth_opt nolabel n) in
  match segs with
  | [ ":=" ] -> arg 0 "reference assignment"
  | [ ("incr" | "decr") ] -> arg 0 "reference increment"
  | [ ("Array" | "Bytes" | "Float" | "Bigarray"); ("set" | "unsafe_set" | "fill") ]
    ->
    arg 0 "array write"
  | [ ("Array" | "Bytes"); "blit" ] -> arg 2 "array blit"
  | [ "Hashtbl"; ("add" | "replace" | "remove" | "reset" | "clear" | "filter_map_inplace") ]
    ->
    arg 0 "hashtable write"
  | [ "Buffer"; f ] when String.length f >= 4 && String.sub f 0 4 = "add_" ->
    arg 0 "buffer write"
  | [ "Buffer"; ("clear" | "reset" | "truncate") ] -> arg 0 "buffer write"
  | [ ("Queue" | "Stack"); ("add" | "push") ] -> arg 1 "queue/stack write"
  | [ ("Queue" | "Stack"); ("pop" | "take" | "clear" | "pop_opt" | "take_opt") ]
    ->
    arg 0 "queue/stack write"
  | _ -> None

let is_pool_map segs =
  match List.rev segs with ("map" | "mapi") :: "Pool" :: _ -> true | _ -> false

let pool_context segs =
  if is_pool_map segs then Some "Pool.map"
  else
    match segs with
    | [ "Domain"; "spawn" ] -> Some "Domain.spawn"
    | _ -> None

let transition_names = [ "step"; "send" ]

(* ---------- bound-variable collection ---------- *)

let bound_stamps body =
  let acc = Hashtbl.create 32 in
  let add id = Hashtbl.replace acc (Ident.unique_name id) () in
  let super = Tast_iterator.default_iterator in
  let pat : 'k. Tast_iterator.iterator -> 'k Typedtree.general_pattern -> unit =
    fun self p ->
     List.iter add (Typedtree.pat_bound_idents p);
     super.pat self p
  in
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_function { param; _ } -> add param
    | Typedtree.Texp_for (id, _, _, _, _, _) -> add id
    | _ -> ());
    super.expr self e
  in
  let it = { super with pat; expr } in
  it.Tast_iterator.expr it body;
  acc

let is_fun_literal (e : Typedtree.expression) =
  match e.exp_desc with Typedtree.Texp_function _ -> true | _ -> false

(* ---------- body analysis ---------- *)

(* The rules a direct effect of [kind] can trigger, hence the allows
   that sanction its site. *)
let site_rules = function
  | Summary.Nondet | Summary.Reads_clock -> [ "nondet-source"; "machine-purity" ]
  | Summary.Mutates_shared -> [ "domain-safety"; "machine-purity" ]
  | Summary.Performs_io -> [ "machine-purity" ]

let site_sanctioned ctx kind line =
  List.exists
    (fun rule -> Option.is_some (Suppress.covering ctx.suppress ~rule ~line))
    (site_rules kind)

let rec analyze_body ctx ~key ~display ~entry ~loc body =
  let bound = bound_stamps body in
  let directs = ref [] and calls = ref [] in
  let add_direct kind what l =
    if ctx.is_obs && (kind = Summary.Nondet || kind = Summary.Reads_clock) then ()
    else if site_sanctioned ctx kind l.Summary.l_line then ()
    else directs := { Summary.d_kind = kind; d_what = what; d_loc = l } :: !directs
  in
  let add_call callee l =
    calls := { Summary.c_callee = callee; c_loc = l } :: !calls
  in
  (* Root variable of a mutation target, through field projections and
     array reads; local iff bound within this node's body. *)
  let rec target_root (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) -> `Ident id
    | Typedtree.Texp_ident (_, _, _) -> `Module_level
    | Typedtree.Texp_field (e', _, _) -> target_root e'
    | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args)
      -> (
      let head =
        match resolve_value ctx p with Global segs -> segs | Local_value -> []
      in
      match head with
      | [ ("Array" | "Bytes"); ("get" | "unsafe_get") ] -> (
        match
          List.find_map
            (fun (l, a) ->
              match (l, a) with Asttypes.Nolabel, Some a -> Some a | _ -> None)
            args
        with
        | Some a -> target_root a
        | None -> `Unknown)
      | _ -> `Unknown)
    | _ -> `Unknown
  in
  let record_mutation tgt what l =
    match target_root tgt with
    | `Ident id when Hashtbl.mem bound (Ident.unique_name id) -> ()
    | `Ident id ->
      add_direct Summary.Mutates_shared
        (Printf.sprintf "%s to `%s`" what (Ident.name id))
        l
    | `Module_level ->
      add_direct Summary.Mutates_shared (what ^ " to module-level state") l
    | `Unknown -> ()
  in
  let synth_key tag l =
    Printf.sprintf "%s.%s@%d:%d" key tag l.Summary.l_line l.Summary.l_col
  in
  (* A closure literal in entry position gets its own node, once per
     source location (the creating function's walk and an enclosing
     synthetic node's walk may both see it). *)
  let synthesize tag entry' display' (closure : Typedtree.expression) =
    let l = loc_of closure.exp_loc in
    let sk = (l.Summary.l_file, l.Summary.l_line, l.Summary.l_col) in
    if not (Hashtbl.mem ctx.synth_seen sk) then begin
      Hashtbl.replace ctx.synth_seen sk ();
      analyze_body ctx ~key:(synth_key tag l) ~display:display' ~entry:entry'
        ~loc:l closure
    end
  in
  let entry_reference entry' (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> (
      match resolve_value ctx p with
      | Global segs ->
        ctx.refs <-
          {
            Summary.r_entry = entry';
            r_callee = String.concat "." segs;
            r_loc = loc_of e.exp_loc;
          }
          :: ctx.refs
      | Local_value -> ())
    | _ -> ()
  in
  let super = Tast_iterator.default_iterator in
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> (
      match resolve_value ctx p with
      | Local_value -> ()
      | Global segs -> (
        let l = loc_of e.exp_loc in
        match classify segs with
        | Some (kind, what) -> add_direct kind what l
        | None -> add_call (String.concat "." segs) l))
    | Typedtree.Texp_setfield (tgt, _, _, _) ->
      record_mutation tgt "record-field write" (loc_of e.exp_loc)
    | Typedtree.Texp_letmodule (Some id, _, _, mexpr, _) ->
      register_module_expr ctx ~prefix:[] ~name:None (Some id) mexpr
    | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args)
      -> (
      let head =
        match resolve_value ctx p with Global segs -> segs | Local_value -> []
      in
      (match mutation_of head args with
      | Some (tgt, what) -> record_mutation tgt what (loc_of e.exp_loc)
      | None -> ());
      match pool_context head with
      | Some context ->
        List.iter
          (fun (_, a) ->
            match a with
            | Some a ->
              if is_fun_literal a then
                synthesize "pool" (Summary.Pool_closure context) context a
              else entry_reference (Summary.Pool_closure context) a
            | None -> ())
          args
      | None -> ())
    | Typedtree.Texp_record { fields; _ } ->
      Array.iter
        (fun ((lbl : Types.label_description), def) ->
          if List.mem lbl.Types.lbl_name transition_names then
            match def with
            | Typedtree.Overridden (_, value) ->
              if is_fun_literal value then
                synthesize lbl.Types.lbl_name
                  (Summary.Transition lbl.Types.lbl_name)
                  lbl.Types.lbl_name value
              else entry_reference (Summary.Transition lbl.Types.lbl_name) value
            | _ -> ())
        fields
    | _ -> ());
    super.expr self e
  in
  let it = { super with expr } in
  it.Tast_iterator.expr it body;
  ctx.fns <-
    {
      Summary.f_key = key;
      f_display = display;
      f_entry = entry;
      f_loc = loc;
      f_direct = List.rev !directs;
      f_calls = List.rev !calls;
    }
    :: ctx.fns

(* ---------- structure scan ---------- *)

(* Registers module aliases / local structures and the key of every
   top-level value, returning the node worklist. Runs before any body
   analysis so `let rec` and forward references within a unit resolve. *)
and register_module_expr ctx ~prefix ~name id_opt (m : Typedtree.module_expr) =
  let rec peel (m : Typedtree.module_expr) =
    match m.mod_desc with
    | Typedtree.Tmod_constraint (m', _, _, _) -> peel m'
    | _ -> m
  in
  match (peel m).mod_desc with
  | Typedtree.Tmod_ident (p, _) -> (
    match id_opt with
    | Some id ->
      Hashtbl.replace ctx.aliases (Ident.unique_name id) (module_segs ctx p)
    | None -> ())
  | Typedtree.Tmod_structure _ -> (
    (* handled by scan_structure when a worklist is wanted; from
       letmodule sites we only note the name for path resolution *)
    match (id_opt, name) with
    | Some id, Some n ->
      Hashtbl.replace ctx.locals (Ident.unique_name id) (prefix @ [ n ])
    | _ -> ())
  | _ -> ()

type pending = {
  p_key : string;
  p_display : string;
  p_entry : Summary.entry_kind;
  p_loc : Summary.loc;
  p_body : Typedtree.expression;
}

let rec scan_structure ctx prefix (str : Typedtree.structure) acc =
  List.fold_left
    (fun acc (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
        List.fold_left
          (fun acc (vb : Typedtree.value_binding) ->
            let ids = Typedtree.pat_bound_idents vb.vb_pat in
            let loc = loc_of vb.vb_pat.pat_loc in
            let display, key =
              match ids with
              | id :: _ ->
                let n = Ident.name id in
                (n, String.concat "." (prefix @ [ n ]))
              | [] ->
                ( "_",
                  Printf.sprintf "%s._toplevel@%d"
                    (String.concat "." prefix)
                    loc.Summary.l_line )
            in
            List.iter
              (fun id -> Hashtbl.replace ctx.top_values (Ident.unique_name id) key)
              ids;
            let entry =
              match ids with
              | [ id ]
                when List.mem (Ident.name id) transition_names
                     && is_fun_literal vb.vb_expr ->
                Summary.Transition (Ident.name id)
              | _ -> Summary.Plain
            in
            {
              p_key = key;
              p_display = display;
              p_entry = entry;
              p_loc = loc;
              p_body = vb.vb_expr;
            }
            :: acc)
          acc vbs
      | Typedtree.Tstr_eval (e, _) ->
        let loc = loc_of item.str_loc in
        {
          p_key =
            Printf.sprintf "%s._toplevel@%d"
              (String.concat "." prefix)
              loc.Summary.l_line;
          p_display = "_";
          p_entry = Summary.Plain;
          p_loc = loc;
          p_body = e;
        }
        :: acc
      | Typedtree.Tstr_module mb -> scan_module ctx prefix mb acc
      | Typedtree.Tstr_recmodule mbs ->
        List.fold_left (fun acc mb -> scan_module ctx prefix mb acc) acc mbs
      | Typedtree.Tstr_include incl -> (
        let rec peel (m : Typedtree.module_expr) =
          match m.mod_desc with
          | Typedtree.Tmod_constraint (m', _, _, _) -> peel m'
          | _ -> m
        in
        match (peel incl.incl_mod).mod_desc with
        | Typedtree.Tmod_structure s -> scan_structure ctx prefix s acc
        | _ -> acc)
      | _ -> acc)
    acc str.str_items

and scan_module ctx prefix (mb : Typedtree.module_binding) acc =
  let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
  let rec peel (m : Typedtree.module_expr) =
    match m.mod_desc with
    | Typedtree.Tmod_constraint (m', _, _, _) -> peel m'
    | _ -> m
  in
  match (peel mb.mb_expr).mod_desc with
  | Typedtree.Tmod_ident (p, _) ->
    (match mb.mb_id with
    | Some id ->
      Hashtbl.replace ctx.aliases (Ident.unique_name id) (module_segs ctx p)
    | None -> ());
    acc
  | Typedtree.Tmod_structure s ->
    (match mb.mb_id with
    | Some id ->
      Hashtbl.replace ctx.locals (Ident.unique_name id) (prefix @ [ name ])
    | None -> ());
    scan_structure ctx (prefix @ [ name ]) s acc
  | _ -> acc

(* ---------- entry point ---------- *)

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* [source] is the unit's recorded source path and [suppress] the
   directives of that file. *)
let of_structure ~unit_name ~source ~suppress (str : Typedtree.structure) =
  let unit_prefix = normalize [ unit_name ] in
  let ctx =
    {
      suppress;
      is_obs =
        has_sub (String.concat "/" (String.split_on_char '\\' source)) "lib/obs/"
        || (match unit_prefix with "Ld_obs" :: _ -> true | _ -> false);
      aliases = Hashtbl.create 16;
      locals = Hashtbl.create 16;
      top_values = Hashtbl.create 64;
      synth_seen = Hashtbl.create 16;
      fns = [];
      refs = [];
    }
  in
  let pending = List.rev (scan_structure ctx unit_prefix str []) in
  List.iter
    (fun p ->
      analyze_body ctx ~key:p.p_key ~display:p.p_display ~entry:p.p_entry
        ~loc:p.p_loc p.p_body)
    pending;
  { Summary.u_fns = List.rev ctx.fns; u_refs = List.rev ctx.refs }
