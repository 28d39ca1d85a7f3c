module Engine = Lightvm_sim.Engine

type port = int

type error = Invalid_port | Wrong_domain | Already_bound | Not_bound

(* Ports are numbered from 1, so 0 names no port: the [peer] of a
   channel nobody has bound yet. *)
let unbound = 0

(* One endpoint. Its remote domain is fixed when the port is created:
   a bind and a peer's close only move it between "unbound, reserved
   for [remote]" and "bound to a port of [remote]". *)
type chan = {
  owner : int;
  port : port;
  remote : int;
  mutable peer : port; (* [remote]'s port once bound, else [unbound] *)
  mutable handler : (unit -> unit) option;
}

module Ports = Map.Make (Int)

module Chans = Set.Make (struct
  type t = chan

  let compare a b =
    match Int.compare a.owner b.owner with
    | 0 -> Int.compare a.port b.port
    | c -> c
end)

(* Everything the table knows about one domain, so tearing it down
   touches this record and the few channels it names, never the whole
   host. A bound channel's peer is found from its own side; only the
   unbound ports reserved for a domain need an index of their own. *)
type dom = {
  mutable next_port : port;
  mutable ports : chan Ports.t; (* the open ports it owns *)
  mutable awaiting : Chans.t; (* unbound ports reserved for it *)
}

type t = { doms : (int, dom) Hashtbl.t; mutable open_ports : int }

let create () = { doms = Hashtbl.create 64; open_ports = 0 }

let dom t domid =
  match Hashtbl.find_opt t.doms domid with
  | Some d -> d
  | None ->
      let d = { next_port = 1; ports = Ports.empty; awaiting = Chans.empty } in
      Hashtbl.replace t.doms domid d;
      d

(* A record with no port, no reservation and a fresh counter says
   nothing an absent one does not. Dropping it keeps the table to live
   domains: domids are never reused, so a dead domain's record would
   otherwise stay in every major GC cycle of a long churn. *)
let tidy t domid d =
  if d.next_port = 1 && Ports.is_empty d.ports && Chans.is_empty d.awaiting
  then Hashtbl.remove t.doms domid

let find t ~domid ~port =
  match Hashtbl.find_opt t.doms domid with
  | None -> None
  | Some d -> Ports.find_opt port d.ports

let await t c =
  let r = dom t c.remote in
  r.awaiting <- Chans.add c r.awaiting

let unawait t c =
  match Hashtbl.find_opt t.doms c.remote with
  | None -> ()
  | Some r ->
      r.awaiting <- Chans.remove c r.awaiting;
      tidy t c.remote r

let open_port t ~domid ~remote ~peer =
  let d = dom t domid in
  let c = { owner = domid; port = d.next_port; remote; peer; handler = None } in
  d.next_port <- d.next_port + 1;
  d.ports <- Ports.add c.port c d.ports;
  t.open_ports <- t.open_ports + 1;
  c

let alloc_unbound t ~domid ~remote =
  let c = open_port t ~domid ~remote ~peer:unbound in
  await t c;
  c.port

let bind_interdomain t ~domid ~remote ~remote_port =
  match find t ~domid:remote ~port:remote_port with
  | None -> Error Invalid_port
  | Some p when p.peer <> unbound -> Error Already_bound
  | Some p when p.remote <> domid -> Error Wrong_domain
  | Some p ->
      let c = open_port t ~domid ~remote ~peer:remote_port in
      unawait t p;
      p.peer <- c.port;
      Ok c.port

let set_handler t ~domid ~port f =
  match find t ~domid ~port with
  | None -> invalid_arg "Evtchn.set_handler: no such port"
  | Some c -> c.handler <- Some f

let notify t ~domid ~port =
  match find t ~domid ~port with
  | None -> Error Invalid_port
  | Some c when c.peer = unbound -> Error Not_bound
  | Some c -> (
      match find t ~domid:c.remote ~port:c.peer with
      | None -> Error Invalid_port
      | Some p ->
          (match p.handler with
          | Some handler -> Engine.spawn ~name:"evtchn-handler" handler
          | None -> () (* lost, like a masked interrupt *));
          Ok ())

let close t ~domid ~port =
  match Hashtbl.find_opt t.doms domid with
  | None -> Error Invalid_port
  | Some d -> (
      match Ports.find_opt port d.ports with
      | None -> Error Invalid_port
      | Some c ->
          if c.peer = unbound then unawait t c
          else begin
            match find t ~domid:c.remote ~port:c.peer with
            | Some p ->
                (* The peer stays reserved for the closing domain. *)
                p.peer <- unbound;
                await t p
            | None -> ()
          end;
          d.ports <- Ports.remove port d.ports;
          t.open_ports <- t.open_ports - 1;
          tidy t domid d;
          Ok ())

let ports_of t ~domid =
  match Hashtbl.find_opt t.doms domid with
  | None -> []
  | Some d -> List.map fst (Ports.bindings d.ports)

let close_all t ~domid =
  match Hashtbl.find_opt t.doms domid with
  | None -> 0
  | Some d ->
      let ports = d.ports in
      Ports.iter (fun port _ -> ignore (close t ~domid ~port)) ports;
      (* Domids are never reused, so the dead domain's port counter
         restarts: the record goes unless peers still hold ports
         reserved for it, and then {!close_peers_of} drops it. *)
      d.next_port <- 1;
      tidy t domid d;
      Ports.cardinal ports

let close_peers_of t ~domid =
  match Hashtbl.find_opt t.doms domid with
  | None -> 0
  | Some d ->
      let stale =
        Ports.fold
          (fun _ c acc ->
            if c.peer = unbound then acc
            else
              match find t ~domid:c.remote ~port:c.peer with
              | Some p -> Chans.add p acc
              | None -> acc)
          d.ports d.awaiting
      in
      Chans.iter (fun c -> ignore (close t ~domid:c.owner ~port:c.port)) stale;
      Chans.cardinal stale

let count t = t.open_ports
