(* Ld_store + Cache_store: the persistent certificate store.

   - frame round-trip and corruption detection: any single-byte flip in
     a record file surfaces as [Store_corrupt], never as a silent wrong
     payload and never as a crash;
   - entry codec round-trip: decode-then-re-encode is byte-identical,
     truncation at every prefix raises [Failure], and a record naming a
     trail the adversary could not take fails at decode time; the
     certificate file that frames one chain's records holds to the
     same;
   - replay: the certificates a cold or reloaded cache rebuilds from
     its trail serialise to pinned bytes, a warm frontier scan rebuilds
     none, and two domains may force one cache at once;
   - warm restart: a cache reloaded from the store re-serialises
     byte-for-byte like the cold one, and its analytic frontier
     verdicts agree at every truncation;
   - put races: concurrent putters of one content-addressed key leave
     exactly one valid record;
   - self-healing: [Cache_store.build_cache] over a corrupted store
     recomputes and republishes clean records. *)

module Store = Ld_store.Store
module Cache_store = Ld_core.Cache_store
module LB = Ld_core.Lower_bound
module Packing = Ld_matching.Packing
module Ec = Ld_models.Ec
module Obs = Ld_obs.Obs

(* Each test gets a fresh directory under the build sandbox. *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ld-store-test.%d.%d" (Unix.getpid ()) !n)
    in
    dir

let with_store f =
  let dir = fresh_dir () in
  let store = Store.open_store ~dir () in
  f store

let record_path store ~key =
  Filename.concat
    (Filename.concat
       (Filename.concat (Store.dir store) "objects")
       (String.sub (Store.digest_hex key) 0 2))
    (Store.digest_hex key)

let read_file path =
  In_channel.with_open_bin path (fun ic ->
      really_input_string ic (In_channel.length ic |> Int64.to_int))

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* ------------------------------------------------------------------ *)
(* Basic store behaviour. *)

let put_get_roundtrip () =
  with_store @@ fun store ->
  Alcotest.(check (option string)) "miss" None (Store.get store ~key:"k");
  Alcotest.(check bool) "mem miss" false (Store.mem store ~key:"k");
  Store.put store ~key:"k" "payload";
  Alcotest.(check (option string))
    "hit" (Some "payload") (Store.get store ~key:"k");
  Alcotest.(check bool) "mem hit" true (Store.mem store ~key:"k");
  (* Re-put of the identical payload is a no-op, not an error. *)
  Store.put store ~key:"k" "payload";
  (* The advisory index dedupes to one entry. *)
  Alcotest.(check int) "index entries" 1 (List.length (Store.entries store));
  Store.delete store ~key:"k";
  Alcotest.(check (option string)) "deleted" None (Store.get store ~key:"k")

let put_conflicting_payload_is_corrupt () =
  with_store @@ fun store ->
  Store.put store ~key:"k" "one";
  Alcotest.check_raises "non-content-addressed re-put"
    (Store.Store_corrupt
       (record_path store ~key:"k"
       ^ ": existing valid record differs from re-put payload (key is not \
          content-addressed)"))
    (fun () -> Store.put store ~key:"k" "two")

(* Any single-byte flip anywhere in the record file must surface as
   [Store_corrupt] — never a silently different payload, never an
   out-of-bounds crash. *)
let corruption_single_byte_flip =
  QCheck.Test.make ~count:60 ~name:"byte flip => Store_corrupt"
    (QCheck.pair QCheck.small_printable_string QCheck.small_nat)
    (fun (payload, flip_seed) ->
      with_store @@ fun store ->
      Store.put store ~key:"k" payload;
      let path = record_path store ~key:"k" in
      let raw = read_file path in
      let pos = flip_seed mod String.length raw in
      let b = Bytes.of_string raw in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x41));
      write_file path (Bytes.to_string b);
      match Store.get store ~key:"k" with
      | Some _ -> false (* corrupted record must never read as a hit *)
      | None -> false (* ... and must not read as a clean miss either *)
      | exception Store.Store_corrupt _ -> true)

let truncation_is_corrupt () =
  with_store @@ fun store ->
  Store.put store ~key:"k" "some payload long enough to truncate";
  let path = record_path store ~key:"k" in
  let raw = read_file path in
  List.iter
    (fun keep ->
      write_file path (String.sub raw 0 keep);
      match Store.get store ~key:"k" with
      | Some _ | None -> Alcotest.fail "truncated record did not raise"
      | exception Store.Store_corrupt _ -> ())
    [ 0; 3; Store.payload_offset - 1; Store.payload_offset + 4 ]

(* ------------------------------------------------------------------ *)
(* Entry codec. *)

let cold_cache delta = LB.build_cache ~delta Packing.greedy_algorithm

let entries_of_cache cache =
  match Cache_store.level_entries cache with
  | Some entries -> entries
  | None -> Alcotest.fail "greedy unexpectedly refuted"

let codec_reencode_is_identity () =
  let cache = cold_cache 5 in
  List.iter
    (fun entry ->
      let s = Cache_store.entry_to_string entry in
      let s' = Cache_store.entry_to_string (Cache_store.entry_of_string s) in
      Alcotest.(check string)
        (Printf.sprintf "level %d re-encode" entry.Cache_store.entry_level)
        s s')
    (entries_of_cache cache)

(* The Δ=8 level records (code version 3), pinned by MD5: the records
   are what a warm run reloads, so no change to the construction, the
   greedy probe machine or Q's representation may move a byte of them. *)
let codec_pinned_delta8 () =
  let pinned =
    [
      "0c15b444f54dd772a89ab30c991e8865";
      "2c209ca3c33ad673b65674d5fe6bb47b";
      "0029ca76aa530fea702433eec34f4f84";
      "954fce1943094d71422610a4f579cf6c";
      "9cea9e72e754fc9ad36f73bfe7138b47";
      "56e390d993d977e1714cd5744e11c1b4";
      "ecc2353126a2fc3c7f19ed8bb308787b";
    ]
  in
  let digests =
    List.map
      (fun e -> Digest.to_hex (Digest.string (Cache_store.entry_to_string e)))
      (entries_of_cache (cold_cache 8))
  in
  Alcotest.(check (list string)) "levels 0..6" pinned digests

(* Every strict prefix of a valid entry must fail to decode — cleanly. *)
let codec_truncation_fails =
  QCheck.Test.make ~count:80 ~name:"entry prefix => Failure"
    (QCheck.float_range 0.0 1.0)
    (fun frac ->
      let s = Cache_store.entry_to_string (List.hd (entries_of_cache (cold_cache 3))) in
      let keep = int_of_float (frac *. float_of_int (String.length s - 1)) in
      match Cache_store.entry_of_string (String.sub s 0 keep) with
      | _ -> false
      | exception Failure _ -> true)

(* Any mutation of a valid record either fails with [Failure] or
   decodes to an entry that re-encodes to the mutated bytes exactly:
   the decoder accepts nothing the encoder would not write. *)
let codec_mutation_is_rejected_or_exact =
  let record =
    lazy (Cache_store.entry_to_string (List.nth (entries_of_cache (cold_cache 4)) 2))
  in
  QCheck.Test.make ~count:500 ~name:"mutated entry => Failure or exact re-encode"
    (QCheck.triple QCheck.small_nat QCheck.small_nat (QCheck.int_range 0 255))
    (fun (kind, at, byte) ->
      let s = Lazy.force record in
      let at = at mod String.length s in
      let mutated =
        match kind mod 3 with
        | 0 -> String.mapi (fun i c -> if i = at then Char.chr byte else c) s
        | 1 -> String.sub s 0 at ^ String.make 1 (Char.chr byte) ^ String.sub s at (String.length s - at)
        | _ -> String.sub s 0 at ^ String.sub s (at + 1) (String.length s - at - 1)
      in
      match Cache_store.entry_of_string mutated with
      | e -> String.equal (Cache_store.entry_to_string e) mutated
      | exception Failure _ -> true)

(* The certificate file codec: the Δ=4 chain's level records behind a
   header, a record count and record lengths. Every strict prefix fails,
   and any mutation either fails or reads back to a chain that writes
   the mutated bytes exactly. *)
let chain_file = lazy (Cache_store.chain_to_string (cold_cache 4))

let file_truncation_fails =
  QCheck.Test.make ~count:80 ~name:"file prefix => Failure"
    (QCheck.float_range 0.0 1.0)
    (fun frac ->
      let s = Lazy.force chain_file in
      let keep = int_of_float (frac *. float_of_int (String.length s - 1)) in
      match Cache_store.chain_of_string ~delta:4 (String.sub s 0 keep) with
      | _ -> false
      | exception Failure _ -> true)

let file_mutation_is_rejected_or_exact =
  QCheck.Test.make ~count:500 ~name:"mutated file => Failure or exact re-encode"
    (QCheck.triple QCheck.small_nat QCheck.small_nat (QCheck.int_range 0 255))
    (fun (kind, at, byte) ->
      let s = Lazy.force chain_file in
      let at = at mod String.length s in
      let mutated =
        match kind mod 3 with
        | 0 -> String.mapi (fun i c -> if i = at then Char.chr byte else c) s
        | 1 -> String.sub s 0 at ^ String.make 1 (Char.chr byte) ^ String.sub s at (String.length s - at)
        | _ -> String.sub s 0 at ^ String.sub s (at + 1) (String.length s - at - 1)
      in
      match Cache_store.chain_of_string ~delta:4 mutated with
      | cache -> String.equal (Cache_store.chain_to_string cache) mutated
      | exception Failure _ -> true)

(* A level record spelled field by field, as the codec lays it out:
   delta, level, the trail length and its entries, the thresholds, two
   weights and the views flag. *)
let spell ~delta ~level ~trail ~thresholds ~weights ~views =
  let buf = Buffer.create 64 in
  let rec varint i =
    if i >= 0x80 then begin
      Buffer.add_uint8 buf (i land 0x7f lor 0x80);
      varint (i lsr 7)
    end
    else Buffer.add_uint8 buf i
  in
  List.iter varint [ delta; level; List.length trail ];
  List.iter (List.iter varint) trail;
  varint (List.length thresholds);
  List.iter varint thresholds;
  List.iter
    (fun w ->
      varint (String.length w);
      Buffer.add_string buf w)
    weights;
  varint views;
  Buffer.contents buf

(* Hand-built hostile records: each must fail cleanly with [Failure]
   when it is decoded, not later when a graph is forced, and a huge
   count must fail before anything of that size is allocated. *)
let codec_hostile_records () =
  let rejects name s =
    match Cache_store.entry_of_string s with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Failure _ -> ()
  in
  let entry = List.nth (entries_of_cache (cold_cache 4)) 1 in
  let valid = Cache_store.entry_to_string entry in
  let c = entry.Cache_store.entry_certificate in
  let delta, removed, changed =
    match c.trail.(0) with
    | LB.Base { delta; removed; changed } -> (delta, removed, changed)
    | LB.Unfold _ -> Alcotest.fail "level 0 is not a base step"
  in
  let side, g_star, loop_target =
    match c.trail.(1) with
    | LB.Unfold { side; g_star; loop_target } ->
      ((match side with `G -> 0 | `H -> 1), g_star, loop_target)
    | LB.Base _ -> Alcotest.fail "level 1 is a base step"
  in
  let record ?(delta = delta) ?(level = 1) ?(removed = removed) ?(side = side)
      ?(g_star = g_star) ?(loop_target = loop_target) ?trail
      ?(thresholds = List.map (fun (p : LB.probe) -> p.prefix_round) entry.entry_probes)
      ?(weights = [ Ld_arith.Q.to_string c.g_weight; Ld_arith.Q.to_string c.h_weight ])
      ?(views = 1) () =
    let trail =
      Option.value trail
        ~default:[ [ removed; changed ]; [ side; g_star; loop_target ] ]
    in
    spell ~delta ~level ~trail ~thresholds ~weights ~views
  in
  Alcotest.(check string) "the spelling matches the codec" valid (record ());
  (* level 1 at delta 4 unfolds a 1-node graph with 3 or 4 loops *)
  rejects "side tag 2" (record ~side:2 ());
  rejects "g* beyond the level's nodes" (record ~g_star:2 ());
  rejects "g* far beyond the level's nodes" (record ~g_star:100_000 ());
  rejects "loop beyond the level's loops" (record ~loop_target:6 ());
  rejects "loop not at g*" (record ~g_star:(1 - g_star) ());
  (* the same loop in copy B of the unfolded side, at g*'s copy there:
     the propagation walk never ends in copy B *)
  rejects "loop in copy B"
    (record ~g_star:(g_star + 1)
       ~loop_target:(loop_target + if side = 0 then delta - 1 else delta - 2)
       ());
  rejects "removed loop = delta" (record ~removed:delta ());
  rejects "removed loop beyond delta" (record ~removed:(delta + 7) ());
  rejects "changed loop = removed loop"
    (record ~trail:[ [ changed; changed ]; [ side; g_star; loop_target ] ] ());
  rejects "prefix shorter than level + 1"
    (record ~trail:[ [ removed; changed ] ] ());
  rejects "prefix longer than level + 1"
    (record ~trail:[ [ removed; changed ]; [ side; g_star; loop_target ]; [ 0; 0; 0 ] ] ());
  rejects "more levels than delta - 1" (record ~delta:2 ~removed:0 ());
  rejects "delta 1" (record ~delta:1 ~level:0 ~trail:[ [ 0; 0 ] ] ~thresholds:[ 1; 1 ] ());
  rejects "delta beyond the trail bound" (record ~delta:1000 ());
  rejects "two thresholds at level 1" (record ~thresholds:[ 1; 1 ] ());
  rejects "non-canonical weight" (record ~weights:[ "2/4"; "1/3" ] ());
  rejects "views flag 2" (record ~views:2 ());
  rejects "trailing byte" (valid ^ "\x00");
  (* the leading delta varint, re-spelled in two bytes *)
  rejects "non-minimal varint"
    (String.make 1 (Char.chr (delta lor 0x80)) ^ "\x00"
    ^ String.sub valid 1 (String.length valid - 1));
  rejects "ten-byte varint" (String.make 9 '\xff' ^ "\x01");
  (* a trail claiming 2^56 entries in a 12-byte record *)
  rejects "huge trail length" "\x04\x01\x80\x80\x80\x80\x80\x80\x80\x80\x01"

(* ------------------------------------------------------------------ *)
(* Warm restart. *)

let warm_equals_cold_bytes =
  QCheck.Test.make ~count:4 ~name:"warm cache re-serialises byte-identically"
    (QCheck.int_range 3 6)
    (fun delta ->
      with_store @@ fun store ->
      let cold = cold_cache delta in
      assert (Cache_store.save_cache store cold);
      match
        Cache_store.load_cache store ~check_views:true ~delta
          ~algo_name:Packing.greedy_algorithm.Packing.name
      with
      | None -> false
      | Some warm ->
        let ser cache =
          String.concat "" (List.map Cache_store.entry_to_string (entries_of_cache cache))
        in
        String.equal (ser cold) (ser warm))

let warm_equals_cold_verdicts () =
  with_store @@ fun store ->
  let delta = 6 in
  let cold = cold_cache delta in
  Alcotest.(check bool) "saved" true (Cache_store.save_cache store cold);
  let warm =
    Cache_store.build_cache ~store ~delta Packing.greedy_algorithm
  in
  (* The warm path is [assemble_cache], not a re-run: same delta, same
     probe stream, and the analytic frontier agrees at every truncation. *)
  Alcotest.(check int) "delta" (LB.cache_delta cold) (LB.cache_delta warm);
  Alcotest.(check int)
    "probe count"
    (List.length (LB.cache_probes cold))
    (List.length (LB.cache_probes warm));
  for rounds = 0 to (2 * delta) + 2 do
    let v cache =
      match LB.truncated_verdict cache ~rounds with
      | `Certified -> true
      | `Refuted -> false
    in
    Alcotest.(check bool)
      (Printf.sprintf "verdict at r=%d" rounds)
      (v cold) (v warm)
  done;
  (* And the records it consulted really came from the store. *)
  Alcotest.(check int)
    "level records" (delta - 1)
    (List.length (Store.entries store))

let build_cache_self_heals () =
  with_store @@ fun store ->
  let delta = 4 in
  let cold = cold_cache delta in
  Alcotest.(check bool) "saved" true (Cache_store.save_cache store cold);
  (* Garble one level record on disk (keep the file length so only the
     checksum can notice). *)
  let key =
    Cache_store.key ~delta ~level:1
      ~algo:Packing.greedy_algorithm.Packing.name ~check_views:true
  in
  let path = record_path store ~key in
  let raw = read_file path in
  let b = Bytes.of_string raw in
  Bytes.set b (String.length raw - 1)
    (Char.chr (Char.code (Bytes.get b (String.length raw - 1)) lxor 0xFF));
  write_file path (Bytes.to_string b);
  (* load_cache surfaces the corruption... *)
  (match
     Cache_store.load_cache store ~check_views:true ~delta
       ~algo_name:Packing.greedy_algorithm.Packing.name
   with
  | Some _ | None -> Alcotest.fail "corrupt record did not raise"
  | exception Store.Store_corrupt _ -> ());
  (* ...and build_cache self-heals: recompute, republish, same verdicts. *)
  let healed = Cache_store.build_cache ~store ~delta Packing.greedy_algorithm in
  for rounds = 0 to (2 * delta) + 2 do
    let v cache =
      match LB.truncated_verdict cache ~rounds with
      | `Certified -> true
      | `Refuted -> false
    in
    Alcotest.(check bool)
      (Printf.sprintf "healed verdict r=%d" rounds)
      (v cold) (v healed)
  done;
  match
    Cache_store.load_cache store ~check_views:true ~delta
      ~algo_name:Packing.greedy_algorithm.Packing.name
  with
  | Some _ -> ()
  | None -> Alcotest.fail "store not repopulated after self-heal"

(* ------------------------------------------------------------------ *)
(* Replay: a cache's graphs are rebuilt from its trail on demand. *)

let greedy = Packing.greedy_algorithm

let certs_of outcome =
  match outcome with
  | LB.Certified certs -> certs
  | LB.Refuted _ -> Alcotest.fail "greedy unexpectedly refuted"

let warm_cache store delta =
  match
    Cache_store.load_cache store ~check_views:true ~delta
      ~algo_name:greedy.Packing.name
  with
  | Some cache -> cache
  | None -> Alcotest.failf "delta=%d: no warm cache" delta

(* Δ = 2..8: the certificates a cold cache and a reloaded one replay
   print the bytes pinned when [LB.run] kept its graphs eagerly, both
   write the pinned certificate file, and each level holds its two (base
   case) or three probes. *)
let replay_matches_run () =
  List.iter
    (fun (delta, digest) ->
      let cold = cold_cache delta in
      let warm =
        with_store @@ fun store ->
        Alcotest.(check bool) "saved" true (Cache_store.save_cache store cold);
        warm_cache store delta
      in
      List.iter
        (fun (name, cache) ->
          let what fmt = Printf.sprintf ("delta=%d %s: " ^^ fmt) delta name in
          let certs = certs_of (LB.cache_outcome cache) in
          Alcotest.(check string) (what "certificate bytes") digest
            (Certificate_digests.md5 certs);
          Alcotest.(check string) (what "file bytes")
            (List.assoc delta Certificate_digests.greedy_files)
            (Certificate_digests.file_md5 cache);
          Alcotest.(check bool) (what "views checked") true
            (List.for_all (fun (c : LB.certificate) -> c.views_checked) certs);
          Alcotest.(check (list int)) (what "probe levels")
            (List.concat_map
               (fun (c : LB.certificate) ->
                 List.init (if c.level = 0 then 2 else 3) (Fun.const c.level))
               certs)
            (List.map (fun (p : LB.probe) -> p.probe_level) (LB.cache_probes cache)))
        [ ("cold", cold); ("warm", warm) ])
    Certificate_digests.greedy

let replays () = Obs.Counter.value (Obs.Counter.make "core.lb.replays")

(* A warm build and a full frontier scan read thresholds only; forcing
   one certificate replays its levels, once. *)
let warm_scan_replays_nothing () =
  with_store @@ fun store ->
  let delta = 6 in
  Alcotest.(check bool) "saved" true (Cache_store.save_cache store (cold_cache delta));
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let warm = Cache_store.build_cache ~store ~delta greedy in
  for rounds = 0 to (2 * delta) + 2 do
    ignore (LB.truncated_verdict warm ~rounds : [ `Certified | `Refuted ])
  done;
  Alcotest.(check int) "warm reload"
    1 (Obs.Counter.value (Obs.Counter.make "core.cache_store.warm"));
  Alcotest.(check int) "levels replayed by a warm scan" 0 (replays ());
  let top = List.nth (certs_of (LB.cache_outcome warm)) (delta - 2) in
  ignore (LB.force top.g_graph : Ec.t);
  Alcotest.(check int) "levels replayed by forcing the top" (delta - 1)
    (replays ());
  List.iter
    (fun (c : LB.certificate) -> ignore (LB.force c.h_graph : Ec.t))
    (certs_of (LB.cache_outcome warm));
  Alcotest.(check int) "each level replays once" (delta - 1) (replays ())

(* Two domains force one reloaded cache at once: nothing raises, and
   both get the very same graphs. *)
let forcing_is_domain_safe () =
  with_store @@ fun store ->
  let delta = 8 in
  Alcotest.(check bool) "saved" true (Cache_store.save_cache store (cold_cache delta));
  let certs = certs_of (LB.cache_outcome (warm_cache store delta)) in
  match
    Ld_pool.Pool.map ~domains:2
      (fun _ ->
        List.map
          (fun (c : LB.certificate) -> (LB.force c.g_graph, LB.force c.h_graph))
          certs)
      [ (); () ]
  with
  | [ a; b ] ->
    List.iter2
      (fun (g, h) (g', h') ->
        Alcotest.(check bool) "same graphs in both domains" true (g == g' && h == h'))
      a b
  | _ -> Alcotest.fail "expected two results"

(* ------------------------------------------------------------------ *)
(* Concurrency: racing putters of one content-addressed key. *)

let racing_puts_leave_one_valid_record () =
  with_store @@ fun store ->
  let payload = String.concat "-" (List.init 200 string_of_int) in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 25 do
              Store.put store ~key:"raced" payload
            done))
  in
  List.iter Domain.join workers;
  (* Exactly one valid record with the agreed bytes — every racer wrote
     a byte-identical frame and rename is atomic, so no interleaving
     can leave a torn or divergent object. *)
  Alcotest.(check (option string))
    "one valid record" (Some payload)
    (Store.get store ~key:"raced");
  let objects = Sys.readdir (Filename.dirname (record_path store ~key:"raced")) in
  Alcotest.(check int) "one object file" 1 (Array.length objects);
  (* No staging litter left behind. *)
  Alcotest.(check int)
    "tmp dir empty" 0
    (Array.length (Sys.readdir (Filename.concat (Store.dir store) "tmp")))

let () =
  Alcotest.run "store"
    [
      ( "store",
        [
          Alcotest.test_case "put/get/delete round-trip" `Quick
            put_get_roundtrip;
          Alcotest.test_case "conflicting re-put is corrupt" `Quick
            put_conflicting_payload_is_corrupt;
          QCheck_alcotest.to_alcotest corruption_single_byte_flip;
          Alcotest.test_case "truncated records are corrupt" `Quick
            truncation_is_corrupt;
        ] );
      ( "codec",
        [
          Alcotest.test_case "re-encode is identity" `Quick
            codec_reencode_is_identity;
          Alcotest.test_case "delta=8 records pinned" `Quick codec_pinned_delta8;
          QCheck_alcotest.to_alcotest codec_truncation_fails;
          QCheck_alcotest.to_alcotest codec_mutation_is_rejected_or_exact;
          Alcotest.test_case "hostile records fail cleanly" `Quick
            codec_hostile_records;
          QCheck_alcotest.to_alcotest file_truncation_fails;
          QCheck_alcotest.to_alcotest file_mutation_is_rejected_or_exact;
        ] );
      ( "warm restart",
        [
          QCheck_alcotest.to_alcotest warm_equals_cold_bytes;
          Alcotest.test_case "warm verdicts = cold verdicts" `Quick
            warm_equals_cold_verdicts;
          Alcotest.test_case "build_cache self-heals corruption" `Quick
            build_cache_self_heals;
        ] );
      ( "replay",
        [
          Alcotest.test_case "cold and warm replays = run (delta 2..8)" `Quick
            replay_matches_run;
          Alcotest.test_case "a warm frontier scan replays nothing" `Quick
            warm_scan_replays_nothing;
          Alcotest.test_case "forcing from two domains" `Quick
            forcing_is_domain_safe;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "racing puts leave one valid record" `Quick
            racing_puts_leave_one_valid_record;
        ] );
    ]
