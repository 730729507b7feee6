(** Synchronous execution of anonymous algorithms on PO multigraphs.
    A machine is an {!Anon.machine}; its contract (broadcast, pure
    [send], frozen once [halted]) is stated there.

    Every arc is a bidirectional communication link (the orientation is
    symmetry-breaking information, not a restriction on messages), so a
    node holds one dart per incident arc end: an out-dart at the tail
    and an in-dart at the head. A dart's key is its
    {!Ld_models.Darts.po_key}, direction and colour — legal because
    out-colours are distinct and in-colours are distinct in a PO graph;
    a node's keys ascend out-darts first, then in-darts, each by colour.
    Like {!Anon_ec}, machines broadcast: one message per node per round,
    delivered on every incident dart.

    {b Loop reflection.} A directed loop contributes an out-dart and an
    in-dart, both kept in the dart table. In any lift, the loop unfolds
    into a directed cycle through the fiber, so the message sent on the
    out-dart arrives on the node's own in-dart of the same colour, and
    vice versa.

    {b Scheduling.} The same code as {!Anon_ec}, through {!Anon}: the
    active-set {!Engine} with send-once caching, lazy CSR-backed inboxes
    and optional domain-parallel rounds; {!reference_run} is the dense
    differential oracle. Counters and the [runtime.po.run] span are the
    [runtime.po.*] family. *)

(** As {!Anon_ec.run}. @raise Invalid_argument if [rounds < 0]. *)
val run :
  ?par_threshold:int ->
  ?domains:int ->
  ('s, 'm) Anon.machine ->
  rounds:int ->
  Ld_models.Po.t ->
  's array

(** As {!Anon_ec.run_until}. @raise Invalid_argument if [max_rounds < 0]. *)
val run_until :
  ?par_threshold:int ->
  ?domains:int ->
  ('s, 'm) Anon.machine ->
  max_rounds:int ->
  Ld_models.Po.t ->
  's array * int

(** The dense differential oracle, as {!Anon_ec.reference_run}. *)
val reference_run :
  ('s, 'm) Anon.machine -> max_rounds:int -> Ld_models.Po.t -> 's array * int
