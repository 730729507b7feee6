(* Content-addressed persistent record store — see store.mli for the
   layout and guarantees. No dependencies beyond the stdlib Digest
   (MD5) and Unix (descriptor I/O, staging names, rename).

   Record frame:
     bytes 0..3    magic "LDS1"
     bytes 4..11   payload length, 64-bit little-endian
     bytes 12..27  MD5 of the payload (raw 16 bytes)
     bytes 28..    payload
   A reader that validated the header once can mmap the file and use
   the payload in place (fixed [payload_offset], no trailer). *)

module Obs = Ld_obs.Obs

let c_hits = Obs.Counter.make "store.hits"
let c_misses = Obs.Counter.make "store.misses"
let c_puts = Obs.Counter.make "store.puts"
let c_corrupt = Obs.Counter.make "store.corrupt"
let c_bytes_read = Obs.Counter.make "store.bytes_read"
let c_bytes_written = Obs.Counter.make "store.bytes_written"

exception Store_corrupt of string

let magic = "LDS1"
let payload_offset = 4 + 8 + 16

type t = { root : string }

let dir t = t.root

let default_dir () =
  match Sys.getenv_opt "LD_STORE" with
  | Some d when d <> "" -> d
  | _ -> (
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> Filename.concat d "ld"
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" -> Filename.concat (Filename.concat h ".cache") "ld"
      | _ -> ".ld-store"))

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    match Sys.mkdir path 0o755 with
    | () -> ()
    | exception Sys_error _ ->
      (* A racing process may have created it between the check and the
         mkdir; only a directory that still does not exist is an error. *)
      if not (Sys.file_exists path) then
        failwith ("Store: cannot create directory " ^ path)
  end

(* A staging file older than this was left by a put that died between
   staging and rename; a live put holds its file for microseconds. *)
let stale_staging_s = 3600.

let remove_stale_staging tmp =
  (* ld-lint: allow nondet-source — file age is wall-clock time; it picks only which dead staging files go *)
  let cutoff = Unix.gettimeofday () -. stale_staging_s in
  Array.iter
    (fun name ->
      let path = Filename.concat tmp name in
      match Unix.lstat path with
      | { st_kind = S_REG; st_mtime; _ } when st_mtime < cutoff -> (
        (* another process may sweep the same file first *)
        try Unix.unlink path with Unix.Unix_error (ENOENT, _, _) -> ())
      | _ | (exception Unix.Unix_error (ENOENT, _, _)) -> ())
    (Sys.readdir tmp)

let open_store ?dir () =
  let root = match dir with Some d -> d | None -> default_dir () in
  mkdir_p root;
  mkdir_p (Filename.concat root "objects");
  let tmp = Filename.concat root "tmp" in
  mkdir_p tmp;
  remove_stale_staging tmp;
  { root }

let digest_hex key = Digest.to_hex (Digest.string key)

let object_path t digest =
  Filename.concat
    (Filename.concat (Filename.concat t.root "objects") (String.sub digest 0 2))
    digest

let index_path t = Filename.concat t.root "index"

let corrupt path what =
  Obs.Counter.incr c_corrupt;
  raise (Store_corrupt (Printf.sprintf "%s: %s" path what))

(* The whole file at [path], [None] if there is none: one open, one
   fstat to size the buffer, reads straight into it, one close. A path
   that is not a regular file is corrupt; [O_NONBLOCK] keeps a FIFO
   planted there from blocking the open. *)
let read_file path =
  match Unix.openfile path [ O_RDONLY; O_NONBLOCK; O_CLOEXEC ] 0 with
  | exception Unix.Unix_error ((ENOENT | ENOTDIR), _, _) -> None
  | fd ->
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    let st = Unix.fstat fd in
    if st.st_kind <> S_REG then corrupt path "not a regular file";
    let buf = Bytes.create st.st_size in
    let rec fill off =
      if off < st.st_size then
        match Unix.read fd buf off (st.st_size - off) with
        | 0 -> corrupt path "file shrank while it was read"
        | n -> fill (off + n)
    in
    fill 0;
    Some (Bytes.unsafe_to_string buf)

(* Validate a raw record file image; the payload on success. *)
let validate ~path raw =
  let fail = corrupt path in
  if String.length raw < payload_offset then fail "record shorter than header";
  if String.sub raw 0 4 <> magic then fail "bad magic";
  let len = Int64.to_int (String.get_int64_le raw 4) in
  if len < 0 || String.length raw <> payload_offset + len then
    fail
      (Printf.sprintf "length mismatch (header says %d, file carries %d)" len
         (String.length raw - payload_offset));
  let payload = String.sub raw payload_offset len in
  let sum = String.sub raw 12 16 in
  if not (Digest.equal sum (Digest.string payload)) then
    fail "checksum mismatch";
  payload

let get t ~key =
  let path = object_path t (digest_hex key) in
  match read_file path with
  | None ->
    Obs.Counter.incr c_misses;
    None
  | Some raw ->
    let payload = validate ~path raw in
    Obs.Counter.incr c_hits;
    Obs.Counter.add c_bytes_read (String.length raw);
    Some payload

let mem t ~key = Sys.file_exists (object_path t (digest_hex key))

(* lstat, so a symlink planted at a record path goes, not its target *)
let rec remove_path path =
  match (Unix.lstat path).st_kind with
  | exception Unix.Unix_error ((ENOENT | ENOTDIR), _, _) -> ()
  | S_DIR ->
    Array.iter (fun e -> remove_path (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> ( try Unix.unlink path with Unix.Unix_error (ENOENT, _, _) -> ())

let delete t ~key = remove_path (object_path t (digest_hex key))

let write_file path ~flags s =
  let fd = Unix.openfile path (O_WRONLY :: O_CLOEXEC :: flags) 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (* [Unix.write_substring] loops until every byte is written *)
      ignore (Unix.write_substring fd s 0 (String.length s) : int))

let append_index t ~digest ~size ~key =
  (* One short O_APPEND write per put; the index is advisory. Keys are
     single-line by construction (Cache_store builds them); a newline
     smuggled into a key would only garble the advisory index. *)
  write_file (index_path t) ~flags:[ O_APPEND; O_CREAT ]
    (Printf.sprintf "%s %d %s\n" digest size key)

let frame payload =
  let buf = Buffer.create (payload_offset + String.length payload) in
  Buffer.add_string buf magic;
  Buffer.add_int64_le buf (Int64.of_int (String.length payload));
  Buffer.add_string buf (Digest.string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let put t ~key payload =
  let digest = digest_hex key in
  let path = object_path t digest in
  let already_valid =
    (* a path that is not a regular file raises here: no rename can
       replace it *)
    match read_file path with
    | None -> false
    | Some raw -> (
      match validate ~path raw with
      | stored ->
        (* Content addressing: an existing valid record for this key is
           necessarily the same bytes; re-writing it would be pure churn.
           A payload that differs anyway means the caller broke the
           content-addressing contract — refuse to paper over it. *)
        if not (String.equal stored payload) then
          raise
            (Store_corrupt
               (path ^ ": existing valid record differs from re-put payload \
                        (key is not content-addressed)"));
        true
      | exception Store_corrupt _ -> false)
  in
  if not already_valid then begin
    mkdir_p (Filename.dirname path);
    let staged =
      Filename.concat
        (Filename.concat t.root "tmp")
        (* pid + domain + ns: unique across processes and across the
           domains of one, so [O_EXCL] never meets another putter *)
        (Printf.sprintf "%s.%d.%d.%Ld" digest (Unix.getpid ())
           (Domain.self () :> int)
           (Obs.now_ns ()))
    in
    let raw = frame payload in
    write_file staged ~flags:[ O_CREAT; O_EXCL ] raw;
    (* Atomic publish: readers see either no record or a whole record,
       and concurrent putters of the same key rename byte-identical
       files over each other — exactly one valid record remains. *)
    Sys.rename staged path;
    Obs.Counter.incr c_puts;
    Obs.Counter.add c_bytes_written (String.length raw);
    append_index t ~digest ~size:(String.length payload) ~key
  end

let entries t =
  match read_file (index_path t) with
  | None -> []
  | Some text ->
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun line ->
        match String.index_opt line ' ' with
        | None -> None
        | Some i -> (
          let digest = String.sub line 0 i in
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          match String.index_opt rest ' ' with
          | None -> None
          | Some j ->
            let size = int_of_string_opt (String.sub rest 0 j) in
            let key = String.sub rest (j + 1) (String.length rest - j - 1) in
            (match size with
            | Some size when not (Hashtbl.mem seen digest) ->
              Hashtbl.add seen digest ();
              Some (digest, size, key)
            | _ -> None)))
      (String.split_on_char '\n' text)
