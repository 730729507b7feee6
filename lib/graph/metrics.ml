let check_connected g =
  if not (Graph.is_connected g) then
    invalid_arg "Metrics: graph is disconnected"

let eccentricity g v =
  check_connected g;
  Array.fold_left Stdlib.max 0 (Graph.bfs_dist g v)

let diameter g =
  check_connected g;
  let best = ref 0 in
  for v = 0 to Graph.n g - 1 do
    best := Stdlib.max !best (eccentricity g v)
  done;
  !best

let radius g =
  check_connected g;
  let best = ref max_int in
  for v = 0 to Graph.n g - 1 do
    best := Stdlib.min !best (eccentricity g v)
  done;
  if Graph.n g = 0 then 0 else !best

let girth g =
  (* BFS from every node; the first cross or back edge at depth d gives
     a cycle of length 2d+1 or 2d+2 through the root — minimised over
     roots this is exact. *)
  let best = ref max_int in
  for root = 0 to Graph.n g - 1 do
    let dist = Array.make (Graph.n g) max_int in
    let parent = Array.make (Graph.n g) (-1) in
    let queue = Queue.create () in
    dist.(root) <- 0;
    Queue.add root queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun w ->
          if dist.(w) = max_int then begin
            dist.(w) <- dist.(u) + 1;
            parent.(w) <- u;
            Queue.add w queue
          end
          else if parent.(u) <> w && w <> u then
            (* non-tree edge: cycle through the BFS tree *)
            best := Stdlib.min !best (dist.(u) + dist.(w) + 1))
        (Graph.neighbours g u)
    done
  done;
  if !best = max_int then None else Some !best

let degree_sequence g =
  List.sort Int.compare (List.init (Graph.n g) (Graph.degree g))
