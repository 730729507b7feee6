(** Synchronous execution of anonymous algorithms on EC multigraphs.
    A machine is an {!Anon.machine}; its contract (broadcast, pure
    [send], frozen once [halted]) is stated there. A dart's key is its
    colour.

    {b Loop reflection.} On a dart that is a loop (semi-edge), the node
    receives the very message it sent on that dart. This makes execution
    on a multigraph [G] agree exactly, fiber by fiber, with execution on
    any lift of [G]: all members of a fiber carry identical states by
    induction on rounds, so the neighbour across a lifted loop edge sends
    precisely what the node itself sent. Consequently every machine run
    through this module satisfies the lift-invariance condition (2) of
    the paper by construction — this is how we "run algorithms on
    factor graphs" without materialising infinite universal covers.

    {b Scheduling.} Machines run on the active-set {!Engine}: each
    node's broadcast is computed once per round into a flat buffer
    (send-once caching; a halted node's message is computed once at halt
    time and reused forever), rounds walk a worklist of non-halted nodes
    (halted-frontier scheduling), and inboxes are lazy views over the
    graph's edge dart table and loop run — a [recv] that reads one dart
    costs one read, not degree allocations. At or above [par_threshold] active nodes a
    round fans out across domains in contiguous node ranges with a
    deterministic submission-order merge, so results are byte-identical
    to the sequential run. {!reference_run} is the dense differential
    oracle the qcheck suite compares against. Counters and the
    [runtime.ec.run] span are the [runtime.ec.*] family. *)

(** [run machine ~rounds g] executes exactly [rounds] rounds (halted
    nodes frozen; rounds in which every node has halted are skipped — a
    no-op by the frozen-state contract) and returns the final states.

    @param par_threshold see {!Engine.default_par_threshold}.
    @param domains domain budget for parallel rounds; defaults to
      [Ld_pool.Pool.default_domains ()]. *)
val run :
  ?par_threshold:int ->
  ?domains:int ->
  ('s, 'm) Anon.machine ->
  rounds:int ->
  Ld_models.Ec.t ->
  's array

(** [run_until machine ~max_rounds g] stops as soon as every node has
    halted (or after [max_rounds]); returns final states and the number
    of rounds executed. Parameters as in {!run}.
    @raise Invalid_argument if [max_rounds < 0] (as {!run} for
      [rounds < 0]). *)
val run_until :
  ?par_threshold:int ->
  ?domains:int ->
  ('s, 'm) Anon.machine ->
  max_rounds:int ->
  Ld_models.Ec.t ->
  's array * int

(** The dense executor: every send recomputed, every non-halted inbox
    walked, halting by full scan each round. Same result as
    {!run_until}; the differential oracle for tests, touching no
    counter. *)
val reference_run :
  ('s, 'm) Anon.machine -> max_rounds:int -> Ld_models.Ec.t -> 's array * int
