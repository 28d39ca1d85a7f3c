type gref = int

type error = Invalid_ref | Wrong_domain | Still_mapped | Not_mapped

module Refs = Map.Make (Int)

(* One domain's grant table. The record is also the domain's lifetime
   token on the grantee side: an entry points at its grantee's record,
   and [release_domain] retires that record, which voids every mapping
   the dead domain held at once. So no index of the entries granted to
   a domain is needed, and its death costs O(its own entries). *)
type dom = {
  domid : int;
  mutable next_ref : gref;
  mutable owned : entry Refs.t;
  mutable live : bool;
}

and entry = {
  mutable grantee : dom;
  frame : int;
  mutable mapped : int; (* mapping refcount; void once [grantee] dies *)
}

type t = { doms : (int, dom) Hashtbl.t; mutable entries : int }

let create () = { doms = Hashtbl.create 64; entries = 0 }

let dom t domid =
  match Hashtbl.find_opt t.doms domid with
  | Some d -> d
  | None ->
      let d = { domid; next_ref = 8; owned = Refs.empty; live = true } in
      Hashtbl.replace t.doms domid d;
      d

let find t ~owner gref =
  match Hashtbl.find_opt t.doms owner with
  | None -> None
  | Some d -> Refs.find_opt gref d.owned

(* Mappings the entry's grantee holds: none once it has died. *)
let held e = if e.grantee.live then e.mapped else 0

let grant_access t ~owner ~grantee ~frame =
  Lightvm_trace.Trace.Counter.incr "hv.gnttab_ops";
  let d = dom t owner in
  let gref = d.next_ref in
  d.next_ref <- gref + 1;
  let e = { grantee = dom t grantee; frame; mapped = 0 } in
  d.owned <- Refs.add gref e d.owned;
  t.entries <- t.entries + 1;
  gref

let map t ~grantee ~owner gref =
  Lightvm_trace.Trace.Counter.incr "hv.gnttab_ops";
  match find t ~owner gref with
  | None -> Error Invalid_ref
  | Some e ->
      if e.grantee.domid <> grantee then Error Wrong_domain
      else begin
        if not e.grantee.live then begin
          (* A domain under the dead one's domid maps afresh. *)
          e.grantee <- dom t grantee;
          e.mapped <- 0
        end;
        e.mapped <- e.mapped + 1;
        Ok e.frame
      end

let unmap t ~grantee ~owner gref =
  Lightvm_trace.Trace.Counter.incr "hv.gnttab_ops";
  match find t ~owner gref with
  | None -> Error Invalid_ref
  | Some e ->
      if e.grantee.domid <> grantee then Error Wrong_domain
      else if held e = 0 then Error Not_mapped
      else begin
        e.mapped <- e.mapped - 1;
        Ok ()
      end

let end_access t ~owner gref =
  match Hashtbl.find_opt t.doms owner with
  | None -> Error Invalid_ref
  | Some d -> (
      match Refs.find_opt gref d.owned with
      | None -> Error Invalid_ref
      | Some e when held e > 0 -> Error Still_mapped
      | Some _ ->
          d.owned <- Refs.remove gref d.owned;
          t.entries <- t.entries - 1;
          Ok ())

let release_domain t ~domid =
  match Hashtbl.find_opt t.doms domid with
  | None -> 0
  | Some d ->
      let n = Refs.cardinal d.owned in
      Hashtbl.remove t.doms domid;
      d.live <- false;
      (* Entries granted to the dead domain may keep the record; its
         own entries must not stay reachable through it. *)
      d.owned <- Refs.empty;
      t.entries <- t.entries - n;
      n

let active_grants t ~owner =
  match Hashtbl.find_opt t.doms owner with
  | None -> 0
  | Some d -> Refs.cardinal d.owned

let mapped_count t ~owner gref =
  match find t ~owner gref with None -> 0 | Some e -> held e

let count t = t.entries
