(* Per-unit extraction summaries and the effect lattice.

   A summary records, for every function-like node of one compilation
   unit: the effects its body performs *directly* (each with the
   source location and a human-readable witness), and the project
   functions it calls (the call-graph edges). Nothing interprocedural
   lives here — that is Callgraph's job.

   A function's effect set is a subset of the four effect kinds;
   [empty] is the lattice bottom ("pure") and set union is the join, so
   the bottom-up SCC fixpoint in Callgraph is a plain monotone closure
   over a finite height-4 lattice. Represented as an int bitmask: sets
   are joined in the fixpoint inner loop. *)

type kind =
  | Reads_clock (* wall/monotonic clock observation *)
  | Nondet (* unseeded randomness *)
  | Mutates_shared (* write to state visible outside the function *)
  | Performs_io (* console/file/socket traffic *)

let all_kinds = [ Reads_clock; Nondet; Mutates_shared; Performs_io ]

(* Prose used in diagnostics: "`f` transitively <describe k>". *)
let describe = function
  | Reads_clock -> "reads the clock"
  | Nondet -> "draws nondeterministic values"
  | Mutates_shared -> "mutates shared state"
  | Performs_io -> "performs I/O"

type set = int

let empty : set = 0

let bit = function
  | Reads_clock -> 1
  | Nondet -> 2
  | Mutates_shared -> 4
  | Performs_io -> 8

let add s k = s lor bit k
let mem s k = s land bit k <> 0
let union (a : set) (b : set) : set = a lor b

type loc = { l_file : string; l_line : int; l_col : int }

let loc_to_string l = Printf.sprintf "%s:%d" l.l_file l.l_line

(* Why a node is an analysis entry point (drives which rule its
   effects trigger). *)
type entry_kind =
  | Plain (* ordinary function: nondet-source *)
  | Transition of string (* machine step/send: machine-purity *)
  | Pool_closure of string (* literal closure at a Pool.map/Domain.spawn
                              call site: domain-safety. The string is
                              the calling context ("Pool.map", ...) *)

type direct = {
  d_kind : kind;
  d_what : string; (* witness, e.g. "Random.int" or "incr `tally`" *)
  d_loc : loc;
}

type call = { c_callee : string; c_loc : loc (* callee = dotted key *) }

type fn = {
  f_key : string; (* canonical dotted key, e.g. "Ld_core.Pool.map" *)
  f_display : string; (* short name used in diagnostic prose *)
  f_entry : entry_kind;
  f_loc : loc;
  f_direct : direct list;
  f_calls : call list;
}

(* A named project function referenced *as* an entry: a step/send
   record field set to an identifier, or a function passed by name to
   Pool.map / Domain.spawn. Resolved against the whole-program graph
   after all units are loaded. *)
type entry_ref = {
  r_entry : entry_kind; (* Transition _ or Pool_closure _ *)
  r_callee : string; (* dotted key of the referenced function *)
  r_loc : loc;
}

type t = { u_fns : fn list; u_refs : entry_ref list }
