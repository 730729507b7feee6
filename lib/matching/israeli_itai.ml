module G = Ld_graph.Graph
module Id = Ld_models.Labelled.Id
module Sync = Ld_runtime.Sync

type phase = Propose | Respond

type st = {
  rng : Random.State.t;
  deg : int;
  live : int list; (* ports whose far endpoint is believed unmatched *)
  matched_port : int option;
  phase : phase;
  proposal_port : int option; (* where I proposed this iteration *)
  accept_port : int option; (* whose proposal I am accepting *)
}

type msg = { m_matched : bool; m_propose : bool; m_accept : bool }

type result = { mate : int option array; rounds : int }

let pick_random rng = function
  | [] -> None
  | ports -> Some (List.nth ports (Random.State.int rng (List.length ports)))

let port_is opt (port : int) = match opt with Some p -> p = port | None -> false

let machine : (st, msg, int option) Sync.machine =
  {
    init =
      (fun ~id:_ ~degree ~rng ->
        let live = List.init degree Fun.id in
        let proposer = degree > 0 && Random.State.bool rng in
        {
          rng;
          deg = degree;
          live;
          matched_port = None;
          phase = Propose;
          proposal_port = (if proposer then pick_random rng live else None);
          accept_port = None;
        });
    send =
      (fun s ~port ->
        Some
          {
            m_matched = s.matched_port <> None;
            m_propose = s.phase = Propose && port_is s.proposal_port port;
            m_accept = s.phase = Respond && port_is s.accept_port port;
          });
    recv =
      (fun s inbox ->
        (* Port-indexed inbox: O(1) lookups instead of assoc scans per
           live port. *)
        let msgs = Array.make s.deg None in
        List.iter (fun (p, m) -> msgs.(p) <- Some m) inbox;
        let live =
          List.filter
            (fun p ->
              match msgs.(p) with
              | Some m -> not m.m_matched
              | None -> true)
            s.live
        in
        match s.phase with
        | Propose ->
          (* Responders (nodes that did not propose) pick the lowest
             incoming proposal from a still-unmatched proposer. *)
          let accept_port =
            if s.matched_port <> None || s.proposal_port <> None then None
            else
              List.find_opt
                (fun p ->
                  match msgs.(p) with
                  | Some m -> m.m_propose && not m.m_matched
                  | None -> false)
                (List.sort Int.compare live)
          in
          { s with live; phase = Respond; accept_port }
        | Respond ->
          let matched_port =
            match s.matched_port with
            | Some _ as m -> m
            | None -> begin
              match s.accept_port with
              | Some p -> Some p (* my acceptance is binding *)
              | None -> begin
                match s.proposal_port with
                | Some p -> begin
                  match msgs.(p) with
                  | Some m when m.m_accept -> Some p
                  | _ -> None
                end
                | None -> None
              end
            end
          in
          let live =
            match matched_port with Some _ -> [] | None -> live
          in
          let proposer = live <> [] && Random.State.bool s.rng in
          {
            s with
            live;
            matched_port;
            phase = Propose;
            accept_port = None;
            proposal_port = (if proposer then pick_random s.rng live else None);
          });
    output =
      (fun s ->
        match s.matched_port with
        | Some p -> Some (Some p)
        | None ->
          (* Safe to stop only at an iteration boundary, once every
             neighbour is known to be matched. *)
          if s.live = [] && s.phase = Propose then Some None else None);
  }

let run ~seed ~max_rounds idg =
  let res = Sync.run machine ~seed ~max_rounds idg in
  let g = Id.graph idg in
  let mate =
    Array.mapi
      (fun v out ->
        Option.map (fun port -> List.nth (G.neighbours g v) port) out)
      res.outputs
  in
  (* Cross-check symmetry of the matching. *)
  Array.iteri
    (fun v m ->
      match m with
      | None -> ()
      | Some w ->
        if not (port_is mate.(w) v) then
          failwith "Israeli_itai: asymmetric matching (protocol bug)")
    mate;
  { mate; rounds = res.rounds }

let is_maximal g r =
  Array.for_all Fun.id
    (Array.mapi
       (fun v m -> match m with None -> true | Some w -> port_is r.mate.(w) v)
       r.mate)
  && List.for_all
       (fun (u, v) -> r.mate.(u) <> None || r.mate.(v) <> None)
       (G.edges g)
