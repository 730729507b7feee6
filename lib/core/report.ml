module Ec = Ld_models.Ec
module Q = Ld_arith.Q
module Fm = Ld_fm.Fm

let graph_block buf title g =
  Buffer.add_string buf (Printf.sprintf "%s (%d nodes, %d edges, %d loops):\n\n```\n" title
    (Ec.n g) (Ec.num_edges g) (Ec.num_loops g));
  if Ec.n g <= 8 then begin
    Buffer.add_string buf (Format.asprintf "%a" Ec.pp g);
    Buffer.add_string buf "\n```\n\nDOT:\n\n```dot\n";
    Buffer.add_string buf (Ld_models.Dot.ec g);
    Buffer.add_string buf "```\n\n"
  end
  else begin
    Buffer.add_string buf
      (Printf.sprintf "(too large to inline; min loops per node = %d, max degree = %d)\n```\n\n"
        (Ec.min_loops g) (Ec.max_degree g))
  end

let certificate buf delta (c : Lower_bound.certificate) =
  let g_graph = Lower_bound.force c.g_graph
  and h_graph = Lower_bound.force c.h_graph in
  Buffer.add_string buf
    (Printf.sprintf "### Level %d\n\n" c.level);
  Buffer.add_string buf
    (Printf.sprintf
       "* distinguished nodes: `g = %d` in G, `h = %d` in H\n\
        * colour-%d loops carry weights **%s** (in G) vs **%s** (in H)\n\
        * radius-%d views at `g`/`h`: %s\n\
        * P2: both graphs are %d-loopy (required: %d); degrees ≤ %d\n\n"
       c.g_node c.h_node c.colour (Q.to_string c.g_weight)
       (Q.to_string c.h_weight) c.level
       (if c.views_checked then "verified isomorphic by colour refinement"
        else "not checked in this run")
       (min (Ec.min_loops g_graph) (Ec.min_loops h_graph))
       (delta - 1 - c.level) delta);
  if c.level <= 1 then begin
    graph_block buf "G_i" g_graph;
    graph_block buf "H_i" h_graph
  end
  else
    Buffer.add_string buf
      (Printf.sprintf "* sizes: |G_%d| = %d, |H_%d| = %d (the 2^i unfolding)\n\n"
         c.level (Ec.n g_graph) c.level (Ec.n h_graph))

let markdown ~delta ~algorithm_name outcome =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "# Adversary report\n\n\
        * paper: Göös–Hirvonen–Suomela, *Linear-in-Δ Lower Bounds in the \
        LOCAL Model* (PODC 2014)\n\
        * algorithm: `%s`\n\
        * maximum degree Δ = %d\n\n"
       algorithm_name delta);
  (match outcome with
  | Lower_bound.Certified certs ->
    Buffer.add_string buf
      (Printf.sprintf
         "## Outcome: CERTIFIED (%d levels)\n\n\
          For every `i = 0 … %d` the pair `(G_i, H_i)` below has \
          isomorphic radius-`i` views at its distinguished nodes while \
          the algorithm outputs different weights on the named loop. \
          Any algorithm computing these outputs therefore has run-time \
          greater than %d — linear in Δ.\n\n"
         (List.length certs) (delta - 2) (delta - 2));
    List.iter (certificate buf delta) certs
  | Lower_bound.Refuted (certs, f) ->
    Buffer.add_string buf
      (Printf.sprintf
         "## Outcome: REFUTED at level %d\n\n\
          The algorithm survived %d level(s), then produced an output \
          that is **not** a maximal fractional matching on the loopy \
          EC-graph below (%d violation(s)). %s\n\n"
         f.fail_level (List.length certs)
         (List.length f.fail_violations)
         f.fail_note);
    graph_block buf "Failing graph" f.fail_graph;
    let lifted = Fm.pull_back f.fail_lift f.fail_output in
    Buffer.add_string buf
      (Printf.sprintf
         "On its loop-free 2-lift (%d nodes) the pulled-back output is \
          maximal: **%b** — the failure persists on a simple graph \
          (Lemma 2 / Fig. 4).\n\n"
         (Ec.n f.fail_lift.total)
         (Fm.is_maximal_fm lifted));
    List.iter (certificate buf delta) certs);
  Buffer.contents buf
