(* Fixture: every diagnostic in this file must be obj-magic. *)

let cast (x : int) : string = Obj.magic x
let boxed v = Obj.repr v

(* The typed tree resolves an opened Obj to Stdlib.Obj.magic ... *)
let opened (x : int) : string = let open Obj in magic x

(* ... and a local module named Obj to itself: no diagnostic here. *)
module Local = struct
  module Obj = struct
    let magic x = x
  end

  let same x = Obj.magic x
end
