(* Fixture: a Pool.map task appending to a captured Buffer. The write
   target is the buffer, the first argument: one domain-safety
   diagnostic. *)

let fill captured xs =
  Pool.map
    (fun x ->
      Buffer.add_string captured "x";
      x)
    xs
