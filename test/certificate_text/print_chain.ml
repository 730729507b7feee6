(* print_chain DELTA FILE: the chain of certificate file FILE, its
   graphs replayed from the trail, as Certificate_text prints it. *)

let () =
  match Sys.argv with
  | [| _; delta; path |] ->
    print_string
      (Certificate_text.to_string
         (Ld_core.Certificate_io.load ~delta:(int_of_string delta) path))
  | _ ->
    prerr_endline "usage: print_chain DELTA FILE";
    exit 2
