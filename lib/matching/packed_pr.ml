module Csr = Ld_graph.Csr
module Packed = Ld_runtime.Packed
module Cv = Cole_vishkin

(* Panconesi–Rizzi maximal matching on the packed port executor.
   Identifiers are the node indices, so they need no storage; the
   algorithm is deterministic, so [Packed.Port.reference_run] is an
   exact oracle for it.

   State slice (5 + 5 Δ words):
     [0]              round
     [1]              matched port, or -1
     [2]              accept port, or -1
     [3        .. +Δ) nbr_ids        (port -> far id)
     [3 +  Δ   .. +Δ) forest_of_out  (port -> forest, 1-based, or 0)
     [3 + 2Δ   .. +Δ) forest_of_in   (port -> forest or 0)
     [3 + 3Δ .. +Δ+1) parent_port    (forest -> port or -1; 0 unused)
     [4 + 4Δ .. +Δ+1) colours        (forest -> colour; 0 unused)

   Message slice (1 word): each round kind reads exactly one value per
   dart — the sender's id (learn-ids), the forest of its out-edge
   (learn-forests), the sender's colour in the one forest the edge
   belongs to (CV, shift, eliminate) or the matched / propose /
   accept flags. Every node sends in every round until all halt
   together, so a recv never reads a word from an earlier round. *)

type round_kind =
  | R_learn_ids
  | R_learn_forests
  | R_cv
  | R_shift
  | R_eliminate of int
  | R_propose of int * int (* forest, colour *)
  | R_respond of int * int

let schedule ~delta ~id_bits =
  let cv = List.init (Cv.iterations_for_bits id_bits) (fun _ -> R_cv) in
  let reduce =
    List.concat_map (fun c -> [ R_shift; R_eliminate c ]) [ 5; 4; 3 ]
  in
  let phases =
    List.concat_map
      (fun f ->
        List.concat_map (fun c -> [ R_propose (f, c); R_respond (f, c) ])
          [ 0; 1; 2 ])
      (List.init delta (fun i -> i + 1))
  in
  Array.of_list ([ R_learn_ids; R_learn_forests ] @ cv @ reduce @ phases)

let flag_matched = 1
let flag_propose = 2
let flag_accept = 4

type layout = {
  delta : int;
  sw : int;  (* 5 + 5 delta *)
  mw : int;  (* 1 *)
  o_nbr : int;
  o_fout : int;
  o_fin : int;
  o_parent : int;
  o_col : int;
}

let layout delta =
  {
    delta;
    sw = 5 + (5 * delta);
    mw = 1;
    o_nbr = 3;
    o_fout = 3 + delta;
    o_fin = 3 + (2 * delta);
    o_parent = 3 + (3 * delta);
    o_col = 4 + (4 * delta);
  }

let proposes l st b f c =
  st.(b + 1) < 0 && st.(b + l.o_parent + f) >= 0 && st.(b + l.o_col + f) = c

let machine ~(sched : round_kind array) ~delta : Packed.Port.machine =
  let l = layout delta in
  let n_rounds = Array.length sched in
  {
    state_words = l.sw;
    msg_words = l.mw;
    init =
      (fun ~g:_ ~st ~node ->
        let b = node * l.sw in
        st.(b) <- 0;
        st.(b + 1) <- -1;
        st.(b + 2) <- -1;
        for i = 0 to delta - 1 do
          st.(b + l.o_nbr + i) <- -1;
          st.(b + l.o_fout + i) <- 0;
          st.(b + l.o_fin + i) <- 0
        done;
        for f = 0 to delta do
          st.(b + l.o_parent + f) <- -1;
          st.(b + l.o_col + f) <- node
        done);
    send =
      (fun ~g ~st ~out ~node ->
        let b = node * l.sw in
        let round = st.(b) in
        let lo = g.Csr.row.(node) and hi = g.Csr.row.(node + 1) in
        if round < n_rounds then
          match sched.(round) with
          | R_learn_ids ->
            for d = lo to hi - 1 do
              out.(d) <- node
            done
          | R_learn_forests ->
            for d = lo to hi - 1 do
              out.(d) <- st.(b + l.o_fout + d - lo)
            done
          | R_cv | R_shift | R_eliminate _ ->
            (* The colour of the one forest the edge belongs to: one of
               [fout], [fin] is its forest, the other 0. *)
            for d = lo to hi - 1 do
              let port = d - lo in
              out.(d) <-
                st.(b + l.o_col + st.(b + l.o_fout + port) + st.(b + l.o_fin + port))
            done
          | R_propose (f, c) ->
            let flags = if st.(b + 1) >= 0 then flag_matched else 0 in
            let target = if proposes l st b f c then st.(b + l.o_parent + f) else -1 in
            for d = lo to hi - 1 do
              out.(d) <- (if d - lo = target then flags lor flag_propose else flags)
            done
          | R_respond _ ->
            let flags = if st.(b + 1) >= 0 then flag_matched else 0 in
            let target = st.(b + 2) in
            for d = lo to hi - 1 do
              out.(d) <- (if d - lo = target then flags lor flag_accept else flags)
            done);
    recv =
      (fun ~g ~mirror ~st ~out ~node ->
        let b = node * l.sw in
        let round = st.(b) in
        let lo = g.Csr.row.(node) in
        let deg = g.Csr.row.(node + 1) - lo in
        (match sched.(round) with
        | R_learn_ids ->
          let next = ref 0 in
          for p = 0 to deg - 1 do
            let mi = out.(mirror.(lo + p)) in
            st.(b + l.o_nbr + p) <- mi;
            if mi > node then begin
              incr next;
              st.(b + l.o_fout + p) <- !next;
              st.(b + l.o_parent + !next) <- p
            end
          done
        | R_learn_forests ->
          for p = 0 to deg - 1 do
            if st.(b + l.o_nbr + p) < node then
              st.(b + l.o_fin + p) <- out.(mirror.(lo + p))
          done
        | R_cv ->
          (* Per-forest updates read only forest [f] data, so in-place
             writes are safe. *)
          for f = 1 to delta do
            let mine = st.(b + l.o_col + f) in
            let parent =
              match st.(b + l.o_parent + f) with
              | -1 -> Cv.virtual_parent mine
              | p -> out.(mirror.(lo + p))
            in
            st.(b + l.o_col + f) <- Cv.step ~mine ~parent
          done
        | R_shift ->
          for f = 1 to delta do
            let mine = st.(b + l.o_col + f) in
            st.(b + l.o_col + f) <-
              (match st.(b + l.o_parent + f) with
              | -1 -> if mine >= 3 then 0 else (mine + 1) mod 3
              | p -> out.(mirror.(lo + p)))
          done
        | R_eliminate c ->
          for f = 1 to delta do
            if st.(b + l.o_col + f) = c then begin
              (* Colours here are < 6; collect the neighbourhood's as
                 a bitmask and take the lowest clear bit: the smallest
                 colour no parent or child in forest [f] holds. *)
              let avoid = ref 0 in
              (match st.(b + l.o_parent + f) with
              | -1 -> ()
              | p -> avoid := !avoid lor (1 lsl out.(mirror.(lo + p))));
              for p = 0 to deg - 1 do
                if st.(b + l.o_fin + p) = f then
                  avoid := !avoid lor (1 lsl out.(mirror.(lo + p)))
              done;
              let x = ref 0 in
              while !avoid land (1 lsl !x) <> 0 do
                incr x
              done;
              st.(b + l.o_col + f) <- !x
            end
          done
        | R_propose (f, c) ->
          if not (st.(b + 1) >= 0 || proposes l st b f c) then begin
            let accept = ref (-1) in
            let p = ref 0 in
            while !accept < 0 && !p < deg do
              let flags = out.(mirror.(lo + !p)) in
              if flags land flag_propose <> 0 && flags land flag_matched = 0
              then accept := !p;
              incr p
            done;
            st.(b + 2) <- !accept
          end
        | R_respond (f, c) ->
          let matched =
            if st.(b + 1) >= 0 then st.(b + 1)
            else if st.(b + 2) >= 0 then st.(b + 2)
            else if proposes l st b f c then begin
              let pp = st.(b + l.o_parent + f) in
              if out.(mirror.(lo + pp)) land flag_accept <> 0 then pp else -1
            end
            else -1
          in
          st.(b + 1) <- matched;
          st.(b + 2) <- -1);
        st.(b) <- round + 1);
    halted = (fun ~st ~node -> st.(node * l.sw) >= n_rounds);
  }

type result = { mate : int array; rounds : int; cv_iterations : int }

let run ?par_threshold ?domains g =
  let n = g.Csr.n in
  let delta = Stdlib.max 1 (Csr.max_degree g) in
  let id_bits = Cv.bits_needed (Stdlib.max 0 (n - 1)) in
  let sched = schedule ~delta ~id_bits in
  let st, stats, all_halted =
    Packed.Port.run_until ?par_threshold ?domains (machine ~sched ~delta)
      ~max_rounds:(Array.length sched) g
  in
  if not all_halted then failwith "Packed_pr.run: nodes failed to halt";
  let sw = (layout delta).sw in
  let mate =
    Array.init n (fun v ->
        let p = st.((v * sw) + 1) in
        if p < 0 then -1 else g.Csr.endpoint.(g.Csr.row.(v) + p))
  in
  Array.iteri
    (fun v w ->
      if w >= 0 && mate.(w) <> v then
        failwith "Packed_pr: asymmetric matching (protocol bug)")
    mate;
  ( { mate; rounds = stats.Packed.rounds;
      cv_iterations = Cv.iterations_for_bits id_bits },
    stats )

let is_maximal g r =
  Packed_ii.is_maximal g { Packed_ii.mate = r.mate; rounds = r.rounds }
