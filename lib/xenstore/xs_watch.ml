type event = { event_path : Xs_path.t; token : string }

type watch = {
  owner : int;
  path : Xs_path.t;
  token : string;
  deliver : event -> unit;
  seq : int; (* registration order; the dispatch order contract *)
  node : node; (* the trie node holding it *)
}

(* One trie node per registered path prefix. [here] holds the watches
   whose path ends exactly at this node, newest first (matching the
   old list's push order); [children] is keyed by interned segments.
   Special paths (@introduceDomain/@releaseDomain) get parent-less
   bucket nodes outside the trie, so the same node/index machinery
   covers them without prefix semantics leaking in. *)
and node = {
  mutable here : watch list;
  children : (string, node) Hashtbl.t;
  parent : node option; (* None for the root and the special buckets *)
  seg : string; (* key of this node in [parent]'s children *)
}

(* Per-owner index: every watch of a domain keyed by its [seq], so the
   quota check is O(1), dropping one watch is O(1) and release is
   O(own watches), never a scan of the registry or of the owner's
   list (Dom0 owns one backend watch per guest device). *)
type t = {
  root : node;
  specials : (string, node) Hashtbl.t;
  by_owner : (int, (int, watch) Hashtbl.t) Hashtbl.t;
  mutable total : int;
  mutable next_seq : int;
}

let mk_node ?parent ?(seg = "") () =
  { here = []; children = Hashtbl.create 4; parent; seg }

let create () =
  {
    root = mk_node ();
    specials = Hashtbl.create 2;
    by_owner = Hashtbl.create 64;
    total = 0;
    next_seq = 0;
  }

let count t = t.total

let count_for t ~owner =
  match Hashtbl.find_opt t.by_owner owner with
  | Some slot -> Hashtbl.length slot
  | None -> 0

(* The node a path's watches live at, creating the spine on demand. *)
let node_for t path =
  if Xs_path.is_special path then begin
    let key = Xs_path.to_string path in
    match Hashtbl.find_opt t.specials key with
    | Some node -> node
    | None ->
        let node = mk_node ~seg:key () in
        Hashtbl.replace t.specials key node;
        node
  end
  else
    List.fold_left
      (fun node seg ->
        match Hashtbl.find_opt node.children seg with
        | Some child -> child
        | None ->
            let child = mk_node ~parent:node ~seg () in
            Hashtbl.replace node.children seg child;
            child)
      t.root (Xs_path.segments path)

(* Read-only lookup: [None] when no watch was ever registered there. *)
let find_node t path =
  if Xs_path.is_special path then
    Hashtbl.find_opt t.specials (Xs_path.to_string path)
  else
    let rec go node = function
      | [] -> Some node
      | seg :: rest -> (
          match Hashtbl.find_opt node.children seg with
          | None -> None
          | Some child -> go child rest)
    in
    go t.root (Xs_path.segments path)

(* Drop now-empty nodes bottom-up so a churny registry (guests come
   and go) does not leave an ever-growing skeleton behind. Special
   buckets have no parent and are never pruned (there are two). *)
let rec prune node =
  match node.parent with
  | Some parent when node.here = [] && Hashtbl.length node.children = 0 ->
      Hashtbl.remove parent.children node.seg;
      prune parent
  | _ -> ()

let add t ~owner ~path ~token ~deliver =
  let node = node_for t path in
  let w = { owner; path; token; deliver; seq = t.next_seq; node } in
  t.next_seq <- t.next_seq + 1;
  node.here <- w :: node.here;
  let slot =
    match Hashtbl.find_opt t.by_owner owner with
    | Some slot -> slot
    | None ->
        let slot = Hashtbl.create 4 in
        Hashtbl.replace t.by_owner owner slot;
        slot
  in
  Hashtbl.replace slot w.seq w;
  t.total <- t.total + 1

let drop_from_owner t w =
  match Hashtbl.find_opt t.by_owner w.owner with
  | None -> ()
  | Some slot ->
      Hashtbl.remove slot w.seq;
      if Hashtbl.length slot = 0 then Hashtbl.remove t.by_owner w.owner

let remove t ~owner ~path ~token =
  match find_node t path with
  | None -> false
  | Some node ->
      let gone, kept =
        List.partition
          (fun w ->
            w.owner = owner
            && Xs_path.equal w.path path
            && String.equal w.token token)
          node.here
      in
      if gone = [] then false
      else begin
        node.here <- kept;
        prune node;
        List.iter (drop_from_owner t) gone;
        t.total <- t.total - List.length gone;
        true
      end

let remove_owner t ~owner =
  match Hashtbl.find_opt t.by_owner owner with
  | None -> 0
  | Some slot ->
      Hashtbl.remove t.by_owner owner;
      Hashtbl.iter
        (fun _ w ->
          w.node.here <- List.filter (fun w' -> w' != w) w.node.here;
          prune w.node)
        slot;
      let n = Hashtbl.length slot in
      t.total <- t.total - n;
      n

let matching t ~modified =
  (* Collect in one pass: a special modified path matches exactly its
     bucket; otherwise every node on the trie walk along [modified]'s
     segments holds, by construction, exactly the watches whose path
     is a prefix of (or equal to) [modified]. Cost: O(depth + hits),
     independent of the registry size. *)
  let hits =
    if Xs_path.is_special modified then
      match Hashtbl.find_opt t.specials (Xs_path.to_string modified) with
      | Some node -> node.here
      | None -> []
    else begin
      let acc = ref [] in
      let rec walk node segs =
        acc := List.rev_append node.here !acc;
        match segs with
        | [] -> ()
        | seg :: rest -> (
            match Hashtbl.find_opt node.children seg with
            | None -> ()
            | Some child -> walk child rest)
      in
      walk t.root (Xs_path.segments modified);
      !acc
    end
  in
  List.sort (fun a b -> Int.compare a.seq b.seq) hits
  |> List.map (fun w -> (w.path, w.token, w.deliver))
