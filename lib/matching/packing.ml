module Ec = Ld_models.Ec
module Darts = Ld_models.Darts
module Q = Ld_arith.Q
module Fm = Ld_fm.Fm
module Anon = Ld_runtime.Anon
module Anon_ec = Ld_runtime.Anon_ec
module Obs = Ld_obs.Obs

(* ------------------------------------------------------------------ *)
(* Greedy by colour: phase c handles exactly the colour-c edges.       *)

(* Every slack starts at 1 and every weight is the minimum of two
   slacks, so each slack and weight is 0 or 1: a node's whole history
   is the colour it saturated through (0 while its slack is 1), and the
   slack it broadcasts is one bit.

   A node halts as soon as it is matched: its broadcast is 0 from then
   on, the executor keeps serving that frozen broadcast to neighbours,
   and [g_matched] never changes again, so halting early changes no
   output and no truncation. On the loopy adversary graphs most nodes
   match within their first few colours. *)
type greedy_state = {
  g_phase : int; (* colour processed in the next round *)
  g_matched : int; (* colour saturated through; 0 = unsaturated *)
  g_last : int; (* largest own colour; halted once phase exceeds it *)
}

let greedy_machine : (greedy_state, int) Anon.machine =
  {
    init =
      (fun colours ->
        let d = Anon.Inbox.degree colours in
        {
          g_phase = 1;
          g_matched = 0;
          g_last = (if d = 0 then 0 else Anon.Inbox.key colours (d - 1));
        });
    send = (fun s -> if s.g_matched = 0 then 1 else 0);
    recv =
      (fun s inbox ->
        (* Phase c reads exactly the colour-c dart, saturated or not: one
           lazy-inbox lookup, not a degree-length scan, and no option
           allocated (a node without that colour reads 0, no offer). *)
        if Anon.Inbox.find_or inbox s.g_phase ~default:0 = 1 && s.g_matched = 0
        then { s with g_phase = s.g_phase + 1; g_matched = s.g_phase }
        else { s with g_phase = s.g_phase + 1 });
    halted = (fun s -> s.g_matched <> 0 || s.g_phase > s.g_last);
  }

let greedy_rounds g = Ec.max_colour g

let greedy_colours ?truncate g =
  let rounds =
    match truncate with
    | None -> greedy_rounds g
    | Some r ->
      if r < 0 then invalid_arg "Packing.greedy_by_colour: negative truncation";
      Stdlib.min r (greedy_rounds g)
  in
  let states = Anon_ec.run greedy_machine ~rounds g in
  (Array.map (fun s -> s.g_matched) states, rounds)

let greedy_by_colour ?truncate g =
  Obs.with_span "matching.packing.greedy" @@ fun () ->
  let matched, _ = greedy_colours ?truncate g in
  (* Scatter the matching: a node matched through colour c puts weight
     1 on its colour-c edge or loop, found with one search of its edge
     segment, then of its loop run; across an edge the partner must have
     matched through the same colour. Everything else stays 0. *)
  let ({ Darts.other; code; _ } as t) = Ec.edge_darts g in
  let loop_row = Ec.loop_row g and loop_colour = Ec.loop_colour g in
  let edge_w = Array.make (Ec.num_edges g) Q.zero
  and loop_w = Array.make (Ec.num_loops g) Q.zero in
  for v = 0 to Ec.n g - 1 do
    let c = matched.(v) in
    if c > 0 then begin
      let d = Darts.find t v c in
      if d >= 0 then begin
        assert (matched.(other.(d)) = c);
        edge_w.(code.(d)) <- Q.one
      end
      else begin
        let j = Darts.search loop_colour loop_row.(v) loop_row.(v + 1) c in
        assert (j >= 0);
        loop_w.(j) <- Q.one
      end
    end
  done;
  Fm.create g ~edge_w ~loop_w

(* ------------------------------------------------------------------ *)
(* Simultaneous proposal.                                              *)

(* Keyed by dart key, so one machine runs in both models: an EC loop is
   one key and gets one share, a PO directed loop is two keys and gets
   two. *)
type proposal_msg = { p_offer : Q.t; p_sat : bool }

type proposal_state = {
  p_slack : Q.t;
  p_offer : Q.t; (* cached [my_offer] of this state — see [with_offer] *)
  p_dead : int list; (* dart keys known dead *)
  p_weights : (int * Q.t) list; (* cumulative, per dart key *)
  p_keys : int list;
}

let live_keys s = List.filter (fun k -> not (List.mem k s.p_dead)) s.p_keys

let my_offer s =
  let live = live_keys s in
  if live = [] || Q.is_zero s.p_slack then Q.zero
  else Q.div s.p_slack (Q.of_int (List.length live))

(* The offer is an exact-rational division over the live-key count —
   by far the costliest part of a proposal round — so it is computed
   once per state transition and carried in the state, rather than per
   send. *)
let with_offer s = { s with p_offer = my_offer s }

let proposal_machine : (proposal_state, proposal_msg) Anon.machine =
  {
    init =
      (fun keys ->
        with_offer
          {
            p_slack = Q.one;
            p_offer = Q.zero;
            p_dead = [];
            p_weights = [];
            p_keys = List.init (Anon.Inbox.degree keys) (Anon.Inbox.key keys);
          });
    send = (fun s -> { p_offer = s.p_offer; p_sat = Q.is_zero s.p_slack });
    recv =
      (fun s inbox ->
        let offer = s.p_offer in
        let i_am_sat = Q.is_zero s.p_slack in
        let increments =
          (* Walk dart indices so dead keys cost a key peek, not a
             message read. *)
          let d = Anon.Inbox.degree inbox in
          let rec go i acc =
            if i >= d then List.rev acc
            else begin
              let k = Anon.Inbox.key inbox i in
              if List.mem k s.p_dead then go (i + 1) acc
              else
                go (i + 1)
                  ((k, Q.min offer (Anon.Inbox.msg inbox i).p_offer) :: acc)
            end
          in
          go 0 []
        in
        let gained = Q.sum (List.map snd increments) in
        let weights =
          List.fold_left
            (fun acc (k, inc) ->
              if Q.is_zero inc then acc
              else begin
                let prev = Option.value ~default:Q.zero (List.assoc_opt k acc) in
                (k, Q.add prev inc) :: List.remove_assoc k acc
              end)
            s.p_weights increments
        in
        let slack = Q.sub s.p_slack gained in
        let now_sat = Q.is_zero slack in
        let dead =
          List.filter
            (fun k ->
              (not (List.mem k s.p_dead))
              && (i_am_sat || now_sat
                 ||
                 match Anon.Inbox.find inbox k with
                 | Some m -> m.p_sat
                 | None -> false))
            s.p_keys
          @ s.p_dead
        in
        with_offer { s with p_slack = slack; p_dead = dead; p_weights = weights });
    halted = (fun s -> List.for_all (fun k -> List.mem k s.p_dead) s.p_keys);
  }

let proposal_weight s k =
  Option.value ~default:Q.zero (List.assoc_opt k s.p_weights)

let proposal_fm g states =
  Fm.of_colour_weights g (fun v c -> proposal_weight states.(v) c)

(* The globally minimal offerer saturates every round, so n + 2 rounds
   always suffice; the +2 covers the death-notification lag. *)
let proposal_rounds g = Ec.n g + 2

let proposal ?truncate g =
  Obs.with_span "matching.packing.proposal" @@ fun () ->
  let states, rounds =
    match truncate with
    | None -> Anon_ec.run_until proposal_machine ~max_rounds:(proposal_rounds g) g
    | Some r ->
      if r < 0 then invalid_arg "Packing.proposal: negative truncation";
      (Anon_ec.run proposal_machine ~rounds:r g, r)
  in
  (proposal_fm g states, rounds)

let proposal_reference g =
  let states, rounds =
    Anon_ec.reference_run proposal_machine ~max_rounds:(proposal_rounds g) g
  in
  (proposal_fm g states, rounds)

(* ------------------------------------------------------------------ *)

type algorithm = { name : string; run : Ec.t -> Fm.t }

let greedy_algorithm = { name = "greedy-by-colour"; run = greedy_by_colour ?truncate:None }

let proposal_algorithm =
  { name = "proposal"; run = (fun g -> fst (proposal g)) }

let truncated base r =
  match base with
  | `Greedy ->
    {
      name = Printf.sprintf "greedy-by-colour[%d rounds]" r;
      run = (fun g -> greedy_by_colour ~truncate:r g);
    }
  | `Proposal ->
    {
      name = Printf.sprintf "proposal[%d rounds]" r;
      run = (fun g -> fst (proposal ~truncate:r g));
    }
