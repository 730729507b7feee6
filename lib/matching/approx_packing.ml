module Ec = Ld_models.Ec
module Q = Ld_arith.Q
module Fm = Ld_fm.Fm
module Anon = Ld_runtime.Anon

let approximation_bound = Q.of_ints 1 4

type state = {
  frozen : bool; (* y[v] >= 1/2: my edges stop doubling *)
  dart_w : (int * Q.t) list; (* final weight per dart colour *)
  colours : int list;
  rounds_left : int;
}

let node_weight s =
  Q.sum (List.map snd s.dart_w)

let machine ~k : (state, bool) Anon.machine =
  {
    init =
      (fun colours ->
        let degree = Anon.Inbox.degree colours in
        let colours = List.init degree (Anon.Inbox.key colours) in
        let w = Q.div Q.one (Q.of_int (1 lsl k)) in
        {
          (* already half-saturated by the uniform start? *)
          frozen = Q.compare (Q.mul (Q.of_int degree) w) Q.half >= 0;
          dart_w = List.map (fun c -> (c, w)) colours;
          colours;
          rounds_left = k + 1;
        });
    (* Announce whether I am frozen. *)
    send = (fun s -> s.frozen);
    recv =
      (fun s inbox ->
        (* A dart doubles iff neither endpoint was frozen at round start. *)
        let dart_w =
          List.map
            (fun (c, w) ->
              let their_frozen =
                Option.value ~default:false (Anon.Inbox.find inbox c)
              in
              if s.frozen || their_frozen then (c, w) else (c, Q.add w w))
            s.dart_w
        in
        let s = { s with dart_w; rounds_left = s.rounds_left - 1 } in
        { s with frozen = s.frozen || Q.compare (node_weight s) Q.half >= 0 });
    halted = (fun s -> s.rounds_left <= 0);
  }

let run ~delta g =
  if delta < 1 || delta < Ec.max_degree g then
    invalid_arg "Approx_packing.run: delta below the maximum degree";
  let rec log2_ceil k = if 1 lsl k >= delta then k else log2_ceil (k + 1) in
  let k = log2_ceil 0 in
  let rounds = k + 1 in
  let states = Ld_runtime.Anon_ec.run (machine ~k) ~rounds g in
  let weight_at v c =
    Option.value ~default:Q.zero (List.assoc_opt c states.(v).dart_w)
  in
  (Fm.of_colour_weights g weight_at, rounds)
