(* Ld_net: the bytes `ld serve` answers, the verdict memo's bound and
   exactness, and that no payload makes the handler raise. *)

module Json = Ld_obs.Json
module Wire = Ld_net.Wire
module Service = Ld_net.Service
module LB = Ld_core.Lower_bound

let max_delta = 4
let state = Service.create ~max_delta ()

(* Each response is the bytes the server gave before the cursor parser
   and the array memo, except for the integer out of float range, which
   used to be read as 0. *)
let response_bytes () =
  List.iter
    (fun (request, response) ->
      Alcotest.(check string) request response (Service.handle_payload state request))
    [
      ({|{"op":"ping"}|}, {|{"ok":true}|});
      ( {|[{"op":"probe","delta":3}]|},
        {|[{"ok":true,"delta":3,"outcome":"certified","levels":2,"probes":5}]|} );
      ( {|[{"op":"verify","delta":3,"rounds":2}, {"op":"verify","delta":3,"rounds":3},{"op":"verify","delta":4,"rounds":100}]|},
        {|[{"ok":true,"delta":3,"rounds":2,"verdict":"refuted"},{"ok":true,"delta":3,"rounds":3,"verdict":"certified"},{"ok":true,"delta":4,"rounds":100,"verdict":"certified"}]|}
      );
      ({|{"op":"frontier","delta":4}|}, {|{"ok":true,"delta":4,"frontier":4}|});
      ({|{"op":"nope"}|}, {|{"ok":false,"error":"unknown op \"nope\""}|});
      ({|{"delta":3}|}, {|{"ok":false,"error":"missing \"op\""}|});
      ( {|[{"op":"verify","delta":9,"rounds":1},{"op":"probe","delta":1}]|},
        {|[{"ok":false,"error":"delta 9 out of range [2, 4]"},{"ok":false,"error":"delta 1 out of range [2, 4]"}]|}
      );
      ({|[{"op":"verify"|}, {|{"ok":false,"error":"parse error: expected , or } at byte 15"}|});
      ("", {|{"ok":false,"error":"parse error: expected value at byte 0"}|});
      ("42", {|{"ok":false,"error":"expected a request object or array"}|});
      ( {|[{"op":"verify","delta":3,"rounds":-1},{"op":"verify","delta":3,"rounds":1.5}]|},
        {|[{"ok":false,"error":"negative \"rounds\""},{"ok":false,"error":"missing or non-integer \"rounds\""}]|}
      );
      ( {|[{"op":"verify","delta":3,"rounds":1e300},{"op":"verify","delta":1e300,"rounds":1}]|},
        {|[{"ok":false,"error":"missing or non-integer \"rounds\""},{"ok":false,"error":"missing or non-integer \"delta\""}]|}
      );
    ]

let int_member_range () =
  let member text = Wire.int_member "k" (Json.parse text) in
  Alcotest.(check (option int)) "2^53" (Some (1 lsl 53)) (member {|{"k":9007199254740992}|});
  Alcotest.(check (option int)) "-2^53" (Some (-(1 lsl 53))) (member {|{"k":-9007199254740992}|});
  Alcotest.(check (option int)) "above 2^53" None (member {|{"k":18014398509481984}|});
  Alcotest.(check (option int)) "1e300" None (member {|{"k":1e300}|});
  Alcotest.(check (option int)) "-0" (Some 0) (member {|{"k":-0}|})

(* 10^5 distinct rounds values fill at most 2 delta + 3 entries per
   delta, and a clamped entry answers what the construction answers
   for the unclamped value. *)
let memo_bounded_and_exact () =
  let state = Service.create ~max_delta () in
  for i = 0 to 99_999 do
    let delta = 2 + (i mod (max_delta - 1)) in
    ignore (Service.verdict state ~delta ~rounds:i : bool)
  done;
  let bound = List.fold_left (fun acc d -> acc + (2 * d) + 3) 0 [ 2; 3; 4 ] in
  Alcotest.(check bool)
    (Printf.sprintf "%d entries <= %d" (Service.memo_entries state) bound)
    true
    (Service.memo_entries state <= bound);
  List.iter
    (fun delta ->
      let cache = Service.get_cache state delta in
      List.iter
        (fun rounds ->
          let direct =
            match LB.truncated_verdict cache ~rounds with `Certified -> true | `Refuted -> false
          in
          Alcotest.(check bool)
            (Printf.sprintf "delta %d rounds %d" delta rounds)
            direct
            (Service.verdict state ~delta ~rounds))
        [ 0; delta - 1; delta; (2 * delta) + 2; (2 * delta) + 3; 1_000_000; max_int ])
    [ 2; 3; 4 ]

(* Random bytes, and byte-mutated request batches that reach the ops. *)
let payload_gen =
  let open QCheck.Gen in
  let request =
    map3
      (fun op delta rounds ->
        Printf.sprintf {|{"op":"%s","delta":%d,"rounds":%d}|} op delta rounds)
      (oneofl [ "ping"; "probe"; "verify"; "frontier"; "stats"; "nope" ])
      (int_range (-1) 6) (int_range (-2) 12)
  in
  let batch = map (fun rs -> "[" ^ String.concat "," rs ^ "]") (list_size (int_range 0 4) request) in
  let mutated =
    batch >>= fun s ->
    map2
      (fun p c ->
        let p = p mod (String.length s + 1) in
        String.sub s 0 p ^ String.make 1 c ^ String.sub s p (String.length s - p))
      nat char
  in
  oneof [ string_size (int_range 0 64); batch; mutated ]

let handler_total =
  QCheck.Test.make ~count:500 ~name:"handle_payload returns JSON, never raises"
    (QCheck.make ~print:(Printf.sprintf "%S") payload_gen)
    (fun payload ->
      match Json.parse (Service.handle_payload state payload) with
      | Json.Obj _ | Json.Arr _ -> true
      | _ -> false)

let () =
  Alcotest.run "net"
    [
      ( "service",
        [
          Alcotest.test_case "response bytes" `Quick response_bytes;
          Alcotest.test_case "memo bounded and exact" `Quick memo_bounded_and_exact;
          QCheck_alcotest.to_alcotest handler_total;
        ] );
      ("wire", [ Alcotest.test_case "int_member range" `Quick int_member_range ]);
    ]
