(* Whole-program call graph and the bottom-up effect fixpoint.

   Nodes are the function summaries of every unit, keyed by canonical
   dotted path. Edges are the summaries' call records, resolved
   against the node index — a call whose callee is not a project
   function (stdlib, unresolved locals) simply contributes nothing,
   and calls into Ld_obs are dropped: the observability layer is the
   sanctioned owner of clocks and trace buffers, so its effects must
   not taint every instrumented function.

   The effect sets are computed by Tarjan's SCC algorithm: components
   are emitted children-first (every SCC reachable from a popped
   component has already been popped), so a single pass assigns each
   component the union of its members' direct effects and the
   already-final sets of its external callees. Mutual recursion needs
   no iteration: members of one component share one set by
   definition. *)

type node = {
  fn : Summary.fn;
  edges : (string * Summary.loc) list; (* resolved project callees *)
  mutable eff : Summary.set;
}

type t = {
  nodes : (string, node) Hashtbl.t;
  order : string list; (* all keys, sorted: deterministic iteration *)
}

let is_obs_key key =
  String.length key >= 7 && String.sub key 0 7 = "Ld_obs."

let build (summaries : Summary.t list) =
  let nodes = Hashtbl.create 1024 in
  List.iter
    (fun (u : Summary.t) ->
      List.iter
        (fun (fn : Summary.fn) ->
          if not (Hashtbl.mem nodes fn.f_key) then
            Hashtbl.add nodes fn.f_key { fn; edges = []; eff = Summary.empty })
        u.u_fns)
    summaries;
  (* resolve edges now that the index is complete; dedupe per callee,
     keeping the first (source-order) call site for chain printing *)
  List.iter
    (fun (u : Summary.t) ->
      List.iter
        (fun (fn : Summary.fn) ->
          match Hashtbl.find_opt nodes fn.f_key with
          | Some node when node.fn == fn ->
            let seen = Hashtbl.create 8 in
            let edges =
              List.filter_map
                (fun (c : Summary.call) ->
                  if
                    Hashtbl.mem nodes c.c_callee
                    && (not (is_obs_key c.c_callee))
                    && c.c_callee <> fn.f_key
                    && not (Hashtbl.mem seen c.c_callee)
                  then begin
                    Hashtbl.replace seen c.c_callee ();
                    Some (c.c_callee, c.c_loc)
                  end
                  else None)
                fn.f_calls
            in
            Hashtbl.replace nodes fn.f_key { node with edges }
          | _ -> ())
        u.u_fns)
    summaries;
  let order =
    Hashtbl.fold (fun k _ acc -> k :: acc) nodes []
    |> List.sort String.compare
  in
  { nodes; order }

let direct_set (fn : Summary.fn) =
  List.fold_left
    (fun s (d : Summary.direct) -> Summary.add s d.d_kind)
    Summary.empty fn.f_direct

(* Tarjan, iterative bookkeeping with recursive DFS (call-graph depth
   is bounded by the longest call chain, far below stack limits). *)
let solve t =
  let index = Hashtbl.create 1024 in
  let lowlink = Hashtbl.create 1024 in
  let on_stack = Hashtbl.create 1024 in
  let stack = ref [] in
  let next = ref 0 in
  let rec strongconnect v =
    Hashtbl.replace index v !next;
    Hashtbl.replace lowlink v !next;
    incr next;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    let node = Hashtbl.find t.nodes v in
    List.iter
      (fun (w, _) ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          let lv = Hashtbl.find lowlink v and lw = Hashtbl.find lowlink w in
          if lw < lv then Hashtbl.replace lowlink v lw
        end
        else if Hashtbl.mem on_stack w then begin
          let lv = Hashtbl.find lowlink v and iw = Hashtbl.find index w in
          if iw < lv then Hashtbl.replace lowlink v iw
        end)
      node.edges;
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      (* pop the component; all its external callees are final *)
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      let members = pop [] in
      let in_scc = Hashtbl.create 4 in
      List.iter (fun m -> Hashtbl.replace in_scc m ()) members;
      let set =
        List.fold_left
          (fun s m ->
            let n = Hashtbl.find t.nodes m in
            let s = Summary.union s (direct_set n.fn) in
            List.fold_left
              (fun s (w, _) ->
                if Hashtbl.mem in_scc w then s
                else Summary.union s (Hashtbl.find t.nodes w).eff)
              s n.edges)
          Summary.empty members
      in
      List.iter (fun m -> (Hashtbl.find t.nodes m).eff <- set) members
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) t.order

let find t key = Hashtbl.find_opt t.nodes key

(* Shortest call chain explaining why [start] carries [kind]:
   breadth-first over nodes whose set contains the kind, stopping at
   the first node with a matching direct effect. Deterministic — edge
   lists are in source order and the BFS queue is FIFO. Returns the
   node keys from [start] to the witness plus the witness itself
   (what, where), or None if [start] does not carry [kind]. *)
let chain t start kind =
  match find t start with
  | None -> None
  | Some n0 when not (Summary.mem n0.eff kind) -> None
  | Some _ ->
    let witness (n : node) =
      List.find_opt (fun (d : Summary.direct) -> d.d_kind = kind) n.fn.f_direct
    in
    let parent = Hashtbl.create 16 in
    let visited = Hashtbl.create 16 in
    let q = Queue.create () in
    Hashtbl.replace visited start ();
    Queue.add start q;
    let found = ref None in
    while !found = None && not (Queue.is_empty q) do
      let v = Queue.pop q in
      let n = Hashtbl.find t.nodes v in
      match witness n with
      | Some d -> found := Some (v, d)
      | None ->
        List.iter
          (fun (w, _) ->
            if not (Hashtbl.mem visited w) then begin
              let nw = Hashtbl.find t.nodes w in
              if Summary.mem nw.eff kind then begin
                Hashtbl.replace visited w ();
                Hashtbl.replace parent w v;
                Queue.add w q
              end
            end)
          n.edges
    done;
    (match !found with
    | None -> None (* unreachable if solve ran: the set is the closure *)
    | Some (w, d) ->
      let rec path v acc =
        match Hashtbl.find_opt parent v with
        | None -> v :: acc
        | Some p -> path p (v :: acc)
      in
      Some (path w [], d))

let chain_text t start kind =
  match chain t start kind with
  | None -> "(no witness)"
  | Some (keys, (d : Summary.direct)) ->
    Printf.sprintf "%s -> %s (%s)"
      (String.concat " -> " keys)
      d.d_what
      (Summary.loc_to_string d.d_loc)
