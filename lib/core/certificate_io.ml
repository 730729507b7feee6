module Ec = Ld_models.Ec
module Q = Ld_arith.Q
module Fm = Ld_fm.Fm
module S = Sexp

(* ---- serialisation ---- *)

let sexp_of_graph g =
  S.list
    [
      S.field "n" [ S.int (Ec.n g) ];
      S.field "edges"
        (List.map
           (fun (e : Ec.edge) -> S.list [ S.int e.u; S.int e.v; S.int e.colour ])
           (Ec.edges g));
      S.field "loops"
        (List.map
           (fun (l : Ec.loop) -> S.list [ S.int l.node; S.int l.colour ])
           (Ec.loops g));
    ]

let graph_of_sexp s =
  let n = S.to_int (List.hd (S.find "n" s)) in
  let triple = function
    | S.List [ a; b; c ] -> (S.to_int a, S.to_int b, S.to_int c)
    | _ -> failwith "Certificate_io: bad edge"
  in
  let pair = function
    | S.List [ a; b ] -> (S.to_int a, S.to_int b)
    | _ -> failwith "Certificate_io: bad loop"
  in
  let edges = List.map triple (S.find "edges" s)
  and loops = List.map pair (S.find "loops" s) in
  (* P2 puts a loop on every node of a certificate graph, so a node
     count above the loop and edge ends listed describes no graph that
     could verify, and would only size an allocation from a length
     field. *)
  let ends = List.length loops + (2 * List.length edges) in
  if n > ends then
    failwith
      (Printf.sprintf "Certificate_io: %d nodes but only %d loop and edge ends"
         n ends);
  (* A graph the model rejects (a colour outside [1, 2^30), an improper
     colouring, ...) is malformed input like any other. *)
  try Ec.create ~n ~edges ~loops
  with Invalid_argument msg -> failwith ("Certificate_io: " ^ msg)

let weight_of_sexp s =
  let a = S.to_atom s in
  try Q.of_string a
  with Division_by_zero | Invalid_argument _ ->
    failwith (Printf.sprintf "Certificate_io: bad weight %S" a)

let sexp_of_certificate (c : Lower_bound.certificate) =
  S.field "certificate"
    [
      S.field "level" [ S.int c.level ];
      S.field "colour" [ S.int c.colour ];
      S.field "g-graph" [ sexp_of_graph (Lower_bound.force c.g_graph) ];
      S.field "h-graph" [ sexp_of_graph (Lower_bound.force c.h_graph) ];
      S.field "g-node" [ S.int c.g_node ];
      S.field "h-node" [ S.int c.h_node ];
      S.field "g-loop" [ S.int c.g_loop ];
      S.field "h-loop" [ S.int c.h_loop ];
      S.field "g-weight" [ S.atom (Q.to_string c.g_weight) ];
      S.field "h-weight" [ S.atom (Q.to_string c.h_weight) ];
    ]

let certificate_of_sexp s =
  let body =
    match s with
    | S.List (S.Atom "certificate" :: body) -> S.List body
    | _ -> failwith "Certificate_io: expected (certificate ...)"
  in
  let one name = List.hd (S.find name body) in
  {
    Lower_bound.level = S.to_int (one "level");
    trail = [||];
    colour = S.to_int (one "colour");
    g_graph = Lower_bound.given (graph_of_sexp (one "g-graph"));
    h_graph = Lower_bound.given (graph_of_sexp (one "h-graph"));
    g_node = S.to_int (one "g-node");
    h_node = S.to_int (one "h-node");
    g_loop = S.to_int (one "g-loop");
    h_loop = S.to_int (one "h-loop");
    g_weight = weight_of_sexp (one "g-weight");
    h_weight = weight_of_sexp (one "h-weight");
    views_checked = false; (* a loaded certificate is unverified *)
  }

let to_string certs =
  String.concat "\n" (List.map (fun c -> S.to_string (sexp_of_certificate c)) certs)
  ^ "\n"

let of_string text =
  (* One sexp per line group: reparse greedily by balancing parens. *)
  let items = ref [] in
  let depth = ref 0 and start = ref None in
  String.iteri
    (fun i ch ->
      match ch with
      | '(' ->
        if !depth = 0 then start := Some i;
        incr depth
      | ')' ->
        decr depth;
        if !depth = 0 then begin
          match !start with
          | Some s_pos ->
            items := String.sub text s_pos (i - s_pos + 1) :: !items;
            start := None
          | None -> failwith "Certificate_io.of_string: unbalanced"
        end
      | _ -> ())
    text;
  if !depth <> 0 then failwith "Certificate_io.of_string: unbalanced";
  List.rev_map (fun item -> certificate_of_sexp (S.of_string item)) !items

let save path certs =
  let oc = open_out path in
  output_string oc (to_string certs);
  close_out oc

let load path = of_string (In_channel.with_open_bin path In_channel.input_all)

(* ---- verification ---- *)

type check = {
  chk_level : int;
  chk_structure : bool;
  chk_views : bool;
  chk_weights_differ : bool;
  chk_outputs : bool option;
}

let check_ok c =
  c.chk_structure && c.chk_views && c.chk_weights_differ
  && (match c.chk_outputs with Some false -> false | Some true | None -> true)

let verify ?algorithm ~delta certs =
  List.map
    (fun (c : Lower_bound.certificate) ->
      let g_graph = Lower_bound.force c.g_graph
      and h_graph = Lower_bound.force c.h_graph in
      let loop_ok g loop_id node =
        loop_id >= 0
        && loop_id < Ec.num_loops g
        &&
        let l = Ec.loop g loop_id in
        l.colour = c.colour && l.node = node
      in
      (* The adversary's levels run 0 .. Δ - 2; a claimed level outside
         that range would print an unchecked round bound. *)
      let chk_structure =
        0 <= c.level
        && c.level <= delta - 2
        && loop_ok g_graph c.g_loop c.g_node
        && loop_ok h_graph c.h_loop c.h_node
        && Ec.min_loops g_graph >= delta - 1 - c.level
        && Ec.min_loops h_graph >= delta - 1 - c.level
        && Ec.max_degree g_graph <= delta
        && Ec.max_degree h_graph <= delta
        && Ec.is_tree_plus_loops g_graph
        && Ec.is_tree_plus_loops h_graph
      in
      let chk_views =
        chk_structure
        && Ld_cover.Refinement.equivalent_radius g_graph c.g_node h_graph
             c.h_node ~radius:c.level
      in
      let chk_weights_differ = not (Q.equal c.g_weight c.h_weight) in
      let chk_outputs =
        match algorithm with
        | None -> None
        | Some (a : Lower_bound.algorithm) ->
          if not chk_structure then Some false
          else begin
            let yg = a.run g_graph and yh = a.run h_graph in
            Some
              (Q.equal (Fm.loop_weight yg c.g_loop) c.g_weight
              && Q.equal (Fm.loop_weight yh c.h_loop) c.h_weight)
          end
      in
      { chk_level = c.level; chk_structure; chk_views; chk_weights_differ; chk_outputs })
    certs

let pp_check fmt c =
  Format.fprintf fmt
    "level %d: structure %s, views %s, weights differ %s, outputs %s"
    c.chk_level
    (if c.chk_structure then "ok" else "FAIL")
    (if c.chk_views then "isomorphic" else "FAIL")
    (if c.chk_weights_differ then "ok" else "FAIL")
    (match c.chk_outputs with
    | None -> "not re-run"
    | Some true -> "reproduced"
    | Some false -> "FAIL")
