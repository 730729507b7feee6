(** Maximal edge packing in the PO model.

    {!Packing.proposal_machine} run on PO darts through
    {!Ld_runtime.Anon_po}: every node splits its residual slack evenly
    over its live darts (a directed loop owns two darts and therefore
    receives two shares — matching its double contribution to the node
    weight). Unlike the
    colour-phased greedy, this needs no global colour schedule, so it
    runs in the bare PO model; it is the algorithm we push through the
    EC ⇐ PO simulation (paper §5.1, Fig. 8). *)

(** [proposal ?truncate g] returns the packing and the rounds executed.
    Untruncated, the output is a maximal FM within [n + 2] rounds. *)
val proposal : ?truncate:int -> Ld_models.Po.t -> Ld_fm.Po_fm.t * int

type algorithm = { name : string; run : Ld_models.Po.t -> Ld_fm.Po_fm.t }

val proposal_algorithm : algorithm
