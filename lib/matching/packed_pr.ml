module Csr = Ld_graph.Csr
module Packed = Ld_runtime.Packed
module Cv = Cole_vishkin

(* Panconesi–Rizzi maximal matching on the packed port executor.
   Identifiers are the node indices, so they need no storage; the
   algorithm is deterministic, so [Packed.Port.reference_run] is an
   exact oracle for it.

   State (5 + 5 Δ words per node), field-major: word [k] of node [v]
   is at [k * n + v], so each field is one n-word column. A
   propose/respond round reads 5 of a node's 5 + 5 Δ words (round,
   matched, accept, parent and colour of the phase's forest); in this
   layout those loads stream 5 columns instead of touching the
   several cache lines a node-major slice spans. Fields:
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
  sw : int;  (* 5 + 5 delta fields *)
  o_nbr : int;
  o_fout : int;
  o_fin : int;
  o_parent : int;
  o_col : int;
}

let layout delta =
  {
    sw = 5 + (5 * delta);
    o_nbr = 3;
    o_fout = 3 + delta;
    o_fin = 3 + (2 * delta);
    o_parent = 3 + (3 * delta);
    o_col = 4 + (4 * delta);
  }

let proposes l st n v f c =
  st.(n + v) < 0
  && st.(((l.o_parent + f) * n) + v) >= 0
  && st.(((l.o_col + f) * n) + v) = c

(* The per-node transitions over a state array of [n] columns; the
   machine wraps each in its range loop, so the calls stay direct. *)

let init_node l ~delta ~n st node =
  st.(node) <- 0;
  st.(n + node) <- -1;
  st.((2 * n) + node) <- -1;
  for i = 0 to delta - 1 do
    st.(((l.o_nbr + i) * n) + node) <- -1;
    st.(((l.o_fout + i) * n) + node) <- 0;
    st.(((l.o_fin + i) * n) + node) <- 0
  done;
  for f = 0 to delta do
    st.(((l.o_parent + f) * n) + node) <- -1;
    st.(((l.o_col + f) * n) + node) <- node
  done

let send_node l ~sched ~n_rounds ~n ~row st out node =
  let round = st.(node) in
  let lo = row.(node) and hi = row.(node + 1) in
  if round < n_rounds then
    match sched.(round) with
    | R_learn_ids ->
      for d = lo to hi - 1 do
        out.(d) <- node
      done
    | R_learn_forests ->
      for d = lo to hi - 1 do
        out.(d) <- st.(((l.o_fout + d - lo) * n) + node)
      done
    | R_cv | R_shift | R_eliminate _ ->
      (* The colour of the one forest the edge belongs to: one of
         [fout], [fin] is its forest, the other 0. *)
      for d = lo to hi - 1 do
        let port = d - lo in
        let f =
          st.(((l.o_fout + port) * n) + node)
          + st.(((l.o_fin + port) * n) + node)
        in
        out.(d) <- st.(((l.o_col + f) * n) + node)
      done
    | R_propose (f, c) ->
      let flags = if st.(n + node) >= 0 then flag_matched else 0 in
      let target =
        if proposes l st n node f c then st.(((l.o_parent + f) * n) + node)
        else -1
      in
      for d = lo to hi - 1 do
        out.(d) <- (if d - lo = target then flags lor flag_propose else flags)
      done
    | R_respond _ ->
      let flags = if st.(n + node) >= 0 then flag_matched else 0 in
      let target = st.((2 * n) + node) in
      for d = lo to hi - 1 do
        out.(d) <- (if d - lo = target then flags lor flag_accept else flags)
      done

let recv_node l ~sched ~delta ~n ~row ~mirror st out node =
  let round = st.(node) in
  let lo = row.(node) in
  let deg = row.(node + 1) - lo in
  (match sched.(round) with
  | R_learn_ids ->
    let next = ref 0 in
    for p = 0 to deg - 1 do
      let mi = out.(mirror.(lo + p)) in
      st.(((l.o_nbr + p) * n) + node) <- mi;
      if mi > node then begin
        incr next;
        st.(((l.o_fout + p) * n) + node) <- !next;
        st.(((l.o_parent + !next) * n) + node) <- p
      end
    done
  | R_learn_forests ->
    for p = 0 to deg - 1 do
      if st.(((l.o_nbr + p) * n) + node) < node then
        st.(((l.o_fin + p) * n) + node) <- out.(mirror.(lo + p))
    done
  | R_cv ->
    (* Per-forest updates read only forest [f] data, so in-place
       writes are safe. *)
    for f = 1 to delta do
      let col = ((l.o_col + f) * n) + node in
      let mine = st.(col) in
      let parent =
        match st.(((l.o_parent + f) * n) + node) with
        | -1 -> Cv.virtual_parent mine
        | p -> out.(mirror.(lo + p))
      in
      st.(col) <- Cv.step ~mine ~parent
    done
  | R_shift ->
    for f = 1 to delta do
      let col = ((l.o_col + f) * n) + node in
      let mine = st.(col) in
      st.(col) <-
        (match st.(((l.o_parent + f) * n) + node) with
        | -1 -> if mine >= 3 then 0 else (mine + 1) mod 3
        | p -> out.(mirror.(lo + p)))
    done
  | R_eliminate c ->
    for f = 1 to delta do
      let col = ((l.o_col + f) * n) + node in
      if st.(col) = c then begin
        (* Colours here are < 6; collect the neighbourhood's as
           a bitmask and take the lowest clear bit: the smallest
           colour no parent or child in forest [f] holds. *)
        let avoid = ref 0 in
        (match st.(((l.o_parent + f) * n) + node) with
        | -1 -> ()
        | p -> avoid := !avoid lor (1 lsl out.(mirror.(lo + p))));
        for p = 0 to deg - 1 do
          if st.(((l.o_fin + p) * n) + node) = f then
            avoid := !avoid lor (1 lsl out.(mirror.(lo + p)))
        done;
        let x = ref 0 in
        while !avoid land (1 lsl !x) <> 0 do
          incr x
        done;
        st.(col) <- !x
      end
    done
  | R_propose (f, c) ->
    if not (st.(n + node) >= 0 || proposes l st n node f c) then begin
      let accept = ref (-1) in
      let p = ref 0 in
      while !accept < 0 && !p < deg do
        let flags = out.(mirror.(lo + !p)) in
        if flags land flag_propose <> 0 && flags land flag_matched = 0
        then accept := !p;
        incr p
      done;
      st.((2 * n) + node) <- !accept
    end
  | R_respond (f, c) ->
    let mine = st.(n + node) and accepted = st.((2 * n) + node) in
    let matched =
      if mine >= 0 then mine
      else if accepted >= 0 then accepted
      else if proposes l st n node f c then begin
        let pp = st.(((l.o_parent + f) * n) + node) in
        if out.(mirror.(lo + pp)) land flag_accept <> 0 then pp else -1
      end
      else -1
    in
    st.(n + node) <- matched;
    st.((2 * n) + node) <- -1);
  st.(node) <- round + 1

let machine ~(sched : round_kind array) ~delta : Packed.Port.machine =
  let l = layout delta in
  let n_rounds = Array.length sched in
  {
    state_words = l.sw;
    msg_words = 1;
    init =
      (fun ~g ~st ~lo ~hi ->
        for v = lo to hi - 1 do
          init_node l ~delta ~n:g.Csr.n st v
        done);
    send =
      (fun ~g ~st ~out ~frozen nodes ~lo ~hi ->
        let n = g.Csr.n and row = g.Csr.row in
        for k = lo to hi - 1 do
          let v = nodes.(k) in
          send_node l ~sched ~n_rounds ~n ~row st out v;
          (* Every node halts after the last round of the schedule. *)
          if st.(v) >= n_rounds then Bytes.set frozen v '\001'
        done);
    recv =
      (fun ~g ~st ~out nodes ~lo ~hi ->
        let n = g.Csr.n and row = g.Csr.row and mirror = g.Csr.mirror in
        for k = lo to hi - 1 do
          recv_node l ~sched ~delta ~n ~row ~mirror st out nodes.(k)
        done);
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
  let mate =
    Array.init n (fun v ->
        let p = st.(n + v) in
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
