(* The text a certificate chain was written as while files held graphs:
   one S-expression per certificate, both graphs spelled out. A writer
   only: the graph pins (Certificate_digests, the Δ=5 golden) compare
   the graphs a trail replays against bytes recorded in this form. *)

module LB = Ld_core.Lower_bound
module Ec = Ld_models.Ec

let items f xs = String.concat "" (List.map (fun x -> " " ^ f x) xs)

let graph g =
  Printf.sprintf "((n %d) (edges%s) (loops%s))" (Ec.n g)
    (items (fun (e : Ec.edge) -> Printf.sprintf "(%d %d %d)" e.u e.v e.colour) (Ec.edges g))
    (items (fun (l : Ec.loop) -> Printf.sprintf "(%d %d)" l.node l.colour) (Ec.loops g))

let certificate (c : LB.certificate) =
  Printf.sprintf
    "(certificate (level %d) (colour %d) (g-graph %s) (h-graph %s) (g-node %d) \
     (h-node %d) (g-loop %d) (h-loop %d) (g-weight %s) (h-weight %s))"
    c.level c.colour
    (graph (LB.force c.g_graph))
    (graph (LB.force c.h_graph))
    c.g_node c.h_node c.g_loop c.h_loop
    (Ld_arith.Q.to_string c.g_weight)
    (Ld_arith.Q.to_string c.h_weight)

let to_string certs = String.concat "\n" (List.map certificate certs) ^ "\n"
