(* The rule catalogue and the unit-local rules.

   [obj-magic] and [exn-swallow] are syntactic passes over the 5.1
   parsetree (an interface's attribute payloads included).
   [poly-compare] reads the typed tree of a unit's .cmt, where the
   instantiated operand type of every comparison is known. The
   interprocedural rules (nondet-source, domain-safety,
   machine-purity) come from Extract and Callgraph and are reported by
   the driver. Every rule is an error. *)

type info = { id : string; doc : string }

let all =
  [
    {
      id = "poly-compare";
      doc =
        "Stdlib `compare`, Hashtbl.hash, or builtin =/<>/</>/<=/>= whose \
         operand type is not a predefined scalar (int, char, bool, unit, \
         string, float, int32, int64, nativeint) or a variant of constant \
         constructors; comparing against a constant constructor (`= []`, \
         `<> None`) is fine. Polymorphic comparison on Q.t/Z.t compares \
         representations, not values, and silently breaks byte-identical \
         result tables.";
    };
    {
      id = "nondet-source";
      doc =
        "A function reaches unseeded randomness (global Random.*) or a \
         wall-clock read (Sys.time, Unix.gettimeofday, raw monotonic \
         clocks), directly or through its callees, outside lib/obs. \
         Randomness must flow through explicitly seeded Random.State \
         values so every table replays byte-identically. The finding \
         prints the call chain down to the witness.";
    };
    {
      id = "domain-safety";
      doc =
        "A closure or function passed to Ld_pool.Pool.map / mapi / \
         Domain.spawn mutates state shared across domains (ref, array, \
         Hashtbl, record field, Buffer, Queue), directly or through its \
         callees, without Atomic/Domain.DLS: a data race under the \
         multicore fan-out. State created inside the task body is fine.";
    };
    {
      id = "machine-purity";
      doc =
        "A machine transition (a `step`/`send` binding or record field \
         whose value is a function) performs I/O, reads a clock, draws \
         global randomness, or mutates shared state, directly or through \
         its callees. Transitions must be pure functions of the machine \
         state so runs replay identically under every executor.";
    };
    { id = "obj-magic"; doc = "Any use of Obj.magic / Obj.repr / Obj.obj." };
    {
      id = "exn-swallow";
      doc =
        "try ... with _ -> (or `exception _` match cases) without a guard: \
         swallowing every exception hides adversary bugs and turns \
         infrastructure failures into wrong tables.";
    };
  ]

let diag ~file ~rule (loc : Location.t) message =
  let p = loc.loc_start in
  {
    Diagnostic.file;
    line = p.pos_lnum;
    col = p.pos_cnum - p.pos_bol;
    rule;
    message;
  }

(* ---------- obj-magic and exn-swallow (parsetree) ---------- *)

let syntactic ~file str =
  let open Parsetree in
  let out = ref [] in
  let swallow loc =
    out :=
      diag ~file ~rule:"exn-swallow" loc
        "catch-all `with _ ->` swallows every exception (including \
         Stack_overflow and assertion failures) — match specific \
         exceptions, or name and re-raise"
      :: !out
  in
  let catch_all c =
    match (c.pc_lhs.ppat_desc, c.pc_guard) with
    | Ppat_any, None -> swallow c.pc_lhs.ppat_loc
    | Ppat_exception { ppat_desc = Ppat_any; ppat_loc; _ }, None ->
      swallow ppat_loc
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_ident
        { txt = Longident.Ldot (Lident "Obj", ("magic" | "repr" | "obj")); _ }
      ->
      out :=
        diag ~file ~rule:"obj-magic" e.pexp_loc
          "Obj.magic/Obj.repr defeats the type system — no unchecked casts \
           in certificate-bearing code"
        :: !out
    | Pexp_try (_, cases) -> List.iter catch_all cases
    | Pexp_match (_, cases) ->
      List.iter
        (fun c ->
          match c.pc_lhs.ppat_desc with
          | Ppat_exception _ -> catch_all c
          | _ -> ())
        cases
    | _ -> ());
    super.expr self e
  in
  let it = { super with expr } in
  it.structure it str;
  !out

(* ---------- poly-compare (typed tree) ---------- *)

(* The polymorphic primitive a path names, if any. A shadowed
   `compare` or a `Q.Infix.( = )` resolves to another path. *)
let polymorphic_op : Path.t -> string option = function
  | Pdot (Pident m, op)
    when Ident.name m = "Stdlib"
         && List.mem op [ "compare"; "="; "<>"; "<"; ">"; "<="; ">=" ] ->
    Some op
  | Pdot (Pdot (Pident m, "Hashtbl"), "hash") when Ident.name m = "Stdlib" ->
    Some "Hashtbl.hash"
  | _ -> None

let scalars =
  Predef.
    [
      path_int; path_char; path_bool; path_unit; path_string; path_float;
      path_int32; path_int64; path_nativeint;
    ]

(* Is [ty] a type builtin comparison handles by value: a predefined
   scalar or a variant of constant constructors? *)
let comparable_by_value env ty =
  match Types.get_desc (Ctype.expand_head_opt env ty) with
  | Tconstr (p, _, _) -> (
    List.exists (Path.same p) scalars
    ||
    match (Env.find_type p env).type_kind with
    | Type_variant (cds, _) ->
      List.for_all
        (fun (cd : Types.constructor_declaration) ->
          match cd.cd_args with Cstr_tuple [] -> true | _ -> false)
        cds
    | _ -> false
    | exception Not_found -> false)
  | _ -> false

(* Printed on one line, however long. *)
let type_text ty =
  let buf = Buffer.create 64 in
  let fmt = Format.formatter_of_buffer buf in
  Format.pp_set_margin fmt 10_000;
  Format.fprintf fmt "%a@?" Printtyp.type_expr ty;
  Buffer.contents buf

let is_constant_constructor (_, arg) =
  match arg with
  | Some { Typedtree.exp_desc = Texp_construct (_, _, []) | Texp_variant (_, None); _ } ->
    true
  | _ -> false

(* The environments stored in a .cmt are summaries; rebuilding one
   needs the unit's load path, which the driver sets before calling. *)
let poly_compare ~file (str : Typedtree.structure) =
  let out = ref [] in
  let check (e : Typedtree.expression) op =
    let env =
      try Envaux.env_of_only_summary e.exp_env with Envaux.Error _ -> e.exp_env
    in
    match Types.get_desc (Ctype.expand_head_opt env e.exp_type) with
    | Tarrow (_, operand, _, _) when comparable_by_value env operand -> ()
    | Tarrow (_, operand, _, _) ->
      out :=
        diag ~file ~rule:"poly-compare" e.exp_loc
          (Printf.sprintf
             "polymorphic `%s` on %s — use a typed comparator (Int.compare, \
              String.equal, List.equal, Q.equal, ...)"
             op (type_text operand))
        :: !out
    | _ -> ()
  in
  let super = Tast_iterator.default_iterator in
  let expr self (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
      when Option.is_some (polymorphic_op p)
           && List.exists is_constant_constructor args ->
      List.iter (fun (_, a) -> Option.iter (self.Tast_iterator.expr self) a) args
    | Texp_ident (p, _, _) -> Option.iter (check e) (polymorphic_op p)
    | _ -> super.expr self e
  in
  let it = { super with expr } in
  it.structure it str;
  !out
