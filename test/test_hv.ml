(* Tests for the hypervisor substrate: frames, event channels, grant
   tables, noxs device pages, and the Xen facade. *)

module Engine = Lightvm_sim.Engine
module Frames = Lightvm_hv.Frames
module Evtchn = Lightvm_hv.Evtchn
module Gnttab = Lightvm_hv.Gnttab
module Devpage = Lightvm_hv.Devpage
module Domain = Lightvm_hv.Domain
module Params = Lightvm_hv.Params
module Xen = Lightvm_hv.Xen

let in_sim f () = ignore (Engine.run f)

(* ------------------------------------------------------------------ *)
(* Frames *)

let test_frames_alloc_free () =
  let f = Frames.create ~total_kb:1024 in
  Alcotest.(check int) "total" 1024 (Frames.total_kb f);
  Alcotest.(check bool) "alloc ok" true (Frames.alloc f ~owner:1 ~kb:512 = Ok ());
  Alcotest.(check int) "used" 512 (Frames.used_kb f);
  Alcotest.(check int) "owned" 512 (Frames.owned_kb f ~owner:1);
  Alcotest.(check bool) "exhaustion" true
    (Frames.alloc f ~owner:2 ~kb:600 = Error Frames.ENOMEM);
  Frames.free f ~owner:1 ~kb:512;
  Alcotest.(check int) "freed" 0 (Frames.used_kb f)

let test_frames_rounding () =
  let f = Frames.create ~total_kb:1024 in
  (* 1 KB rounds up to one 4 KB frame. *)
  ignore (Frames.alloc f ~owner:1 ~kb:1);
  Alcotest.(check int) "rounded to frame" 4 (Frames.used_kb f)

let test_frames_free_all () =
  let f = Frames.create ~total_kb:4096 in
  ignore (Frames.alloc f ~owner:3 ~kb:100);
  ignore (Frames.alloc f ~owner:3 ~kb:200);
  ignore (Frames.alloc f ~owner:4 ~kb:400);
  let released = Frames.free_all f ~owner:3 in
  Alcotest.(check int) "released" 300 released;
  Alcotest.(check int) "other untouched" 400 (Frames.owned_kb f ~owner:4)

let test_frames_over_free () =
  let f = Frames.create ~total_kb:1024 in
  ignore (Frames.alloc f ~owner:1 ~kb:8);
  match Frames.free f ~owner:1 ~kb:64 with
  | () -> Alcotest.fail "over-free accepted"
  | exception Invalid_argument _ -> ()

let prop_frames_conservation =
  QCheck.Test.make ~name:"frame allocator conserves memory" ~count:100
    QCheck.(list (pair (int_range 1 5) (int_range 1 64)))
    (fun script ->
      let f = Frames.create ~total_kb:4096 in
      List.iter
        (fun (owner, kb) -> ignore (Frames.alloc f ~owner ~kb:(kb * 4)))
        script;
      let by_owner =
        List.fold_left (fun acc (_, kb) -> acc + kb) 0 (Frames.owners f)
      in
      by_owner = Frames.used_kb f
      && Frames.used_kb f + Frames.free_kb f = Frames.total_kb f)

(* ------------------------------------------------------------------ *)
(* Event channels *)

let test_evtchn_lifecycle =
  in_sim (fun () ->
      let e = Evtchn.create () in
      let backend_port = Evtchn.alloc_unbound e ~domid:0 ~remote:5 in
      let guest_port =
        match
          Evtchn.bind_interdomain e ~domid:5 ~remote:0
            ~remote_port:backend_port
        with
        | Ok p -> p
        | Error _ -> Alcotest.fail "bind failed"
      in
      let guest_got = ref 0 and backend_got = ref 0 in
      Evtchn.set_handler e ~domid:5 ~port:guest_port (fun () ->
          incr guest_got);
      Evtchn.set_handler e ~domid:0 ~port:backend_port (fun () ->
          incr backend_got);
      (* Backend notifies guest. *)
      Alcotest.(check bool) "notify ok" true
        (Evtchn.notify e ~domid:0 ~port:backend_port = Ok ());
      (* Guest notifies backend twice. *)
      ignore (Evtchn.notify e ~domid:5 ~port:guest_port);
      ignore (Evtchn.notify e ~domid:5 ~port:guest_port);
      Engine.sleep 0.001;
      Alcotest.(check int) "guest handler ran" 1 !guest_got;
      Alcotest.(check int) "backend handler ran" 2 !backend_got)

let test_evtchn_wrong_domain =
  in_sim (fun () ->
      let e = Evtchn.create () in
      let port = Evtchn.alloc_unbound e ~domid:0 ~remote:5 in
      match Evtchn.bind_interdomain e ~domid:6 ~remote:0 ~remote_port:port with
      | Error Evtchn.Wrong_domain -> ()
      | _ -> Alcotest.fail "wrong domain bound")

let test_evtchn_double_bind =
  in_sim (fun () ->
      let e = Evtchn.create () in
      let port = Evtchn.alloc_unbound e ~domid:0 ~remote:5 in
      ignore (Evtchn.bind_interdomain e ~domid:5 ~remote:0 ~remote_port:port);
      match Evtchn.bind_interdomain e ~domid:5 ~remote:0 ~remote_port:port with
      | Error Evtchn.Already_bound -> ()
      | _ -> Alcotest.fail "double bind accepted")

let test_evtchn_close_all =
  in_sim (fun () ->
      let e = Evtchn.create () in
      let p1 = Evtchn.alloc_unbound e ~domid:3 ~remote:0 in
      let _p2 = Evtchn.alloc_unbound e ~domid:3 ~remote:0 in
      ignore (Evtchn.bind_interdomain e ~domid:0 ~remote:3 ~remote_port:p1);
      Alcotest.(check int) "closed two" 2 (Evtchn.close_all e ~domid:3);
      Alcotest.(check (list int)) "none left" [] (Evtchn.ports_of e ~domid:3);
      (* Peer's port survives but is unbound. *)
      match Evtchn.ports_of e ~domid:0 with
      | [ p ] -> (
          match Evtchn.notify e ~domid:0 ~port:p with
          | Error Evtchn.Not_bound -> ()
          | _ -> Alcotest.fail "stale binding")
      | _ -> Alcotest.fail "peer port lost")

(* ------------------------------------------------------------------ *)
(* Grant tables *)

let test_gnttab_flow () =
  let g = Gnttab.create () in
  let gref = Gnttab.grant_access g ~owner:7 ~grantee:0 ~frame:1234 in
  (match Gnttab.map g ~grantee:0 ~owner:7 gref with
  | Ok frame -> Alcotest.(check int) "mapped frame" 1234 frame
  | Error _ -> Alcotest.fail "map failed");
  Alcotest.(check bool) "end while mapped refused" true
    (Gnttab.end_access g ~owner:7 gref = Error Gnttab.Still_mapped);
  Alcotest.(check bool) "unmap" true
    (Gnttab.unmap g ~grantee:0 ~owner:7 gref = Ok ());
  Alcotest.(check bool) "end after unmap" true
    (Gnttab.end_access g ~owner:7 gref = Ok ());
  Alcotest.(check bool) "ref retired" true
    (Gnttab.map g ~grantee:0 ~owner:7 gref = Error Gnttab.Invalid_ref)

let test_gnttab_wrong_grantee () =
  let g = Gnttab.create () in
  let gref = Gnttab.grant_access g ~owner:7 ~grantee:0 ~frame:1 in
  Alcotest.(check bool) "wrong grantee" true
    (Gnttab.map g ~grantee:9 ~owner:7 gref = Error Gnttab.Wrong_domain)

let test_gnttab_refcount () =
  let g = Gnttab.create () in
  let gref = Gnttab.grant_access g ~owner:7 ~grantee:0 ~frame:1 in
  ignore (Gnttab.map g ~grantee:0 ~owner:7 gref);
  ignore (Gnttab.map g ~grantee:0 ~owner:7 gref);
  Alcotest.(check int) "two mappings" 2 (Gnttab.mapped_count g ~owner:7 gref);
  ignore (Gnttab.unmap g ~grantee:0 ~owner:7 gref);
  Alcotest.(check int) "one left" 1 (Gnttab.mapped_count g ~owner:7 gref);
  Alcotest.(check bool) "still mapped" true
    (Gnttab.end_access g ~owner:7 gref = Error Gnttab.Still_mapped)

(* ------------------------------------------------------------------ *)
(* Event channels and grant tables against a whole-table scan *)

(* The obvious implementation: one flat table per resource, every
   per-domain question answered by folding over all of it. The
   per-domain tables must agree with it on every return value. *)
module Scan = struct
  type chan = Unbound of int (* expected remote *) | Bound of int * int

  type grant = { grantee : int; frame : int; mutable mapped : int }

  type t = {
    chans : (int * int, chan) Hashtbl.t;
    next_port : (int, int) Hashtbl.t;
    grants : (int * int, grant) Hashtbl.t;
    next_ref : (int, int) Hashtbl.t;
  }

  let create () =
    {
      chans = Hashtbl.create 16;
      next_port = Hashtbl.create 4;
      grants = Hashtbl.create 16;
      next_ref = Hashtbl.create 4;
    }

  let fresh tbl ~first d =
    let n = Option.value ~default:first (Hashtbl.find_opt tbl d) in
    Hashtbl.replace tbl d (n + 1);
    n

  let alloc_unbound t ~domid ~remote =
    let port = fresh t.next_port ~first:1 domid in
    Hashtbl.replace t.chans (domid, port) (Unbound remote);
    port

  let bind_interdomain t ~domid ~remote ~remote_port =
    match Hashtbl.find_opt t.chans (remote, remote_port) with
    | None -> Error Evtchn.Invalid_port
    | Some (Bound _) -> Error Evtchn.Already_bound
    | Some (Unbound e) when e <> domid -> Error Evtchn.Wrong_domain
    | Some (Unbound _) ->
        let port = fresh t.next_port ~first:1 domid in
        Hashtbl.replace t.chans (domid, port) (Bound (remote, remote_port));
        Hashtbl.replace t.chans (remote, remote_port) (Bound (domid, port));
        Ok port

  let close t ~domid ~port =
    match Hashtbl.find_opt t.chans (domid, port) with
    | None -> Error Evtchn.Invalid_port
    | Some c ->
        (match c with
        | Bound (d, p) when Hashtbl.mem t.chans (d, p) ->
            Hashtbl.replace t.chans (d, p) (Unbound domid)
        | Bound _ | Unbound _ -> ());
        Hashtbl.remove t.chans (domid, port);
        Ok ()

  let ports_of t ~domid =
    List.sort compare
      (Hashtbl.fold
         (fun (d, p) _ acc -> if d = domid then p :: acc else acc)
         t.chans [])

  let close_all t ~domid =
    let ports = ports_of t ~domid in
    List.iter (fun port -> ignore (close t ~domid ~port)) ports;
    Hashtbl.remove t.next_port domid;
    List.length ports

  let close_peers_of t ~domid =
    let stale =
      Hashtbl.fold
        (fun key c acc ->
          match c with
          | Unbound e when e = domid -> key :: acc
          | Bound (d, _) when d = domid -> key :: acc
          | Unbound _ | Bound _ -> acc)
        t.chans []
    in
    List.iter
      (fun (d, p) -> ignore (close t ~domid:d ~port:p))
      (List.sort compare stale);
    List.length stale

  let grant_access t ~owner ~grantee ~frame =
    let gref = fresh t.next_ref ~first:8 owner in
    Hashtbl.replace t.grants (owner, gref) { grantee; frame; mapped = 0 };
    gref

  let map t ~grantee ~owner gref =
    match Hashtbl.find_opt t.grants (owner, gref) with
    | None -> Error Gnttab.Invalid_ref
    | Some g when g.grantee <> grantee -> Error Gnttab.Wrong_domain
    | Some g ->
        g.mapped <- g.mapped + 1;
        Ok g.frame

  let unmap t ~grantee ~owner gref =
    match Hashtbl.find_opt t.grants (owner, gref) with
    | None -> Error Gnttab.Invalid_ref
    | Some g when g.grantee <> grantee -> Error Gnttab.Wrong_domain
    | Some g when g.mapped = 0 -> Error Gnttab.Not_mapped
    | Some g ->
        g.mapped <- g.mapped - 1;
        Ok ()

  let end_access t ~owner gref =
    match Hashtbl.find_opt t.grants (owner, gref) with
    | None -> Error Gnttab.Invalid_ref
    | Some g when g.mapped > 0 -> Error Gnttab.Still_mapped
    | Some _ ->
        Hashtbl.remove t.grants (owner, gref);
        Ok ()

  let release_domain t ~domid =
    let owned =
      Hashtbl.fold
        (fun (o, r) _ acc -> if o = domid then (o, r) :: acc else acc)
        t.grants []
    in
    List.iter (Hashtbl.remove t.grants) owned;
    Hashtbl.iter
      (fun _ g -> if g.grantee = domid then g.mapped <- 0)
      t.grants;
    Hashtbl.remove t.next_ref domid;
    List.length owned

  let active_grants t ~owner =
    Hashtbl.fold (fun (o, _) _ n -> if o = owner then n + 1 else n) t.grants 0

  let mapped_count t ~owner gref =
    match Hashtbl.find_opt t.grants (owner, gref) with
    | None -> 0
    | Some g -> g.mapped
end

type table_op =
  | Alloc_unbound of int * int
  | Bind of int * int * int
  | Close of int * int
  | Close_all of int
  | Close_peers_of of int
  | Grant of int * int * int
  | Map of int * int * int
  | Unmap of int * int * int
  | End_access of int * int
  | Release of int

let show_table_op = function
  | Alloc_unbound (d, r) -> Printf.sprintf "alloc_unbound %d->%d" d r
  | Bind (d, r, p) -> Printf.sprintf "bind %d to %d:%d" d r p
  | Close (d, p) -> Printf.sprintf "close %d:%d" d p
  | Close_all d -> Printf.sprintf "close_all %d" d
  | Close_peers_of d -> Printf.sprintf "close_peers_of %d" d
  | Grant (o, g, f) -> Printf.sprintf "grant %d->%d frame %d" o g f
  | Map (g, o, r) -> Printf.sprintf "map %d of %d:%d" g o r
  | Unmap (g, o, r) -> Printf.sprintf "unmap %d of %d:%d" g o r
  | End_access (o, r) -> Printf.sprintf "end_access %d:%d" o r
  | Release d -> Printf.sprintf "release %d" d

(* Four domids, Dom0 included; small port and reference ranges so that
   binds, closes and maps mostly name something that exists. *)
let table_op_gen =
  let open QCheck.Gen in
  let dom = int_range 0 3 and port = int_range 1 5 and gref = int_range 8 12 in
  frequency
    [
      (4, map2 (fun d r -> Alloc_unbound (d, r)) dom dom);
      (4, map3 (fun d r p -> Bind (d, r, p)) dom dom port);
      (2, map2 (fun d p -> Close (d, p)) dom port);
      (1, map (fun d -> Close_all d) dom);
      (1, map (fun d -> Close_peers_of d) dom);
      (4, map3 (fun o g f -> Grant (o, g, f)) dom dom (int_range 0 99));
      (4, map3 (fun g o r -> Map (g, o, r)) dom dom gref);
      (2, map3 (fun g o r -> Unmap (g, o, r)) dom dom gref);
      (2, map2 (fun o r -> End_access (o, r)) dom gref);
      (1, map (fun d -> Release d) dom);
    ]

let prop_tables_match_scan =
  QCheck.Test.make
    ~name:"per-domain evtchn and gnttab agree with a whole-table scan"
    ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_table_op ops))
       QCheck.Gen.(list_size (int_range 1 60) table_op_gen))
    (fun ops ->
      let e = Evtchn.create () and g = Gnttab.create () in
      let m = Scan.create () in
      let agree what a b =
        if a <> b then QCheck.Test.fail_reportf "%s diverged" what
      in
      List.iter
        (fun op ->
          let what = show_table_op op in
          (match op with
          | Alloc_unbound (domid, remote) ->
              agree what
                (Evtchn.alloc_unbound e ~domid ~remote)
                (Scan.alloc_unbound m ~domid ~remote)
          | Bind (domid, remote, remote_port) ->
              agree what
                (Evtchn.bind_interdomain e ~domid ~remote ~remote_port)
                (Scan.bind_interdomain m ~domid ~remote ~remote_port)
          | Close (domid, port) ->
              agree what
                (Evtchn.close e ~domid ~port)
                (Scan.close m ~domid ~port)
          | Close_all domid ->
              agree what (Evtchn.close_all e ~domid) (Scan.close_all m ~domid)
          | Close_peers_of domid ->
              agree what
                (Evtchn.close_peers_of e ~domid)
                (Scan.close_peers_of m ~domid)
          | Grant (owner, grantee, frame) ->
              agree what
                (Gnttab.grant_access g ~owner ~grantee ~frame)
                (Scan.grant_access m ~owner ~grantee ~frame)
          | Map (grantee, owner, gref) ->
              agree what
                (Gnttab.map g ~grantee ~owner gref)
                (Scan.map m ~grantee ~owner gref)
          | Unmap (grantee, owner, gref) ->
              agree what
                (Gnttab.unmap g ~grantee ~owner gref)
                (Scan.unmap m ~grantee ~owner gref)
          | End_access (owner, gref) ->
              agree what
                (Gnttab.end_access g ~owner gref)
                (Scan.end_access m ~owner gref)
          | Release domid ->
              agree what
                (Gnttab.release_domain g ~domid)
                (Scan.release_domain m ~domid));
          agree (what ^ ": evtchn count") (Evtchn.count e)
            (Hashtbl.length m.Scan.chans);
          agree (what ^ ": gnttab count") (Gnttab.count g)
            (Hashtbl.length m.Scan.grants);
          for d = 0 to 3 do
            agree
              (Printf.sprintf "%s: ports_of %d" what d)
              (Evtchn.ports_of e ~domid:d)
              (Scan.ports_of m ~domid:d);
            agree
              (Printf.sprintf "%s: active_grants %d" what d)
              (Gnttab.active_grants g ~owner:d)
              (Scan.active_grants m ~owner:d);
            for gref = 8 to 12 do
              agree
                (Printf.sprintf "%s: mapped_count %d:%d" what d gref)
                (Gnttab.mapped_count g ~owner:d gref)
                (Scan.mapped_count m ~owner:d gref)
            done
          done)
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Device pages *)

let entry devid =
  {
    Devpage.kind = Devpage.Vif;
    devid;
    backend_domid = 0;
    grant_ref = 42;
    evtchn_port = 3;
  }

let test_devpage_flow () =
  let d = Devpage.create () in
  Devpage.setup d ~domid:4;
  Alcotest.(check bool) "dom0 writes" true
    (Devpage.write_entry d ~caller:0 ~domid:4 (entry 0) = Ok ());
  (match Devpage.read d ~caller:4 ~domid:4 with
  | Ok [ e ] -> Alcotest.(check int) "devid" 0 e.Devpage.devid
  | _ -> Alcotest.fail "guest read failed");
  Alcotest.(check bool) "guest cannot write" true
    (Devpage.write_entry d ~caller:4 ~domid:4 (entry 1)
    = Error Devpage.Access_denied);
  Alcotest.(check bool) "stranger cannot read" true
    (Devpage.read d ~caller:9 ~domid:4 = Error Devpage.Access_denied);
  Alcotest.(check bool) "find" true
    (match
       Devpage.find d ~caller:4 ~domid:4 ~kind:Devpage.Vif ~devid:0
     with
    | Ok e -> e.Devpage.grant_ref = 42
    | Error _ -> false)

let test_devpage_replace_and_remove () =
  let d = Devpage.create () in
  Devpage.setup d ~domid:4;
  ignore (Devpage.write_entry d ~caller:0 ~domid:4 (entry 0));
  ignore
    (Devpage.write_entry d ~caller:0 ~domid:4
       { (entry 0) with Devpage.grant_ref = 99 });
  (match Devpage.read d ~caller:0 ~domid:4 with
  | Ok [ e ] -> Alcotest.(check int) "replaced" 99 e.Devpage.grant_ref
  | _ -> Alcotest.fail "replace created duplicate");
  Alcotest.(check bool) "remove" true
    (Devpage.remove_entry d ~caller:0 ~domid:4 ~kind:Devpage.Vif ~devid:0
    = Ok ());
  Alcotest.(check bool) "remove again" true
    (Devpage.remove_entry d ~caller:0 ~domid:4 ~kind:Devpage.Vif ~devid:0
    = Error Devpage.No_entry)

let test_devpage_no_page () =
  let d = Devpage.create () in
  Alcotest.(check bool) "no page" true
    (Devpage.write_entry d ~caller:0 ~domid:9 (entry 0)
    = Error Devpage.No_page)

(* ------------------------------------------------------------------ *)
(* Xen facade *)

let test_xen_boot =
  in_sim (fun () ->
      let xen = Xen.boot () in
      Alcotest.(check int) "one domain (Dom0)" 1
        (List.length (Xen.domains xen));
      Alcotest.(check int) "no guests" 0 (Xen.guest_count xen);
      Alcotest.(check (list int)) "dom0 core" [ 0 ] (Xen.dom0_cores xen);
      Alcotest.(check (list int))
        "guest cores" [ 1; 2; 3 ] (Xen.guest_cores xen))

let test_xen_domain_lifecycle =
  in_sim (fun () ->
      let xen = Xen.boot () in
      let dom =
        match Xen.create_domain xen ~name:"g1" ~vcpus:1 ~mem_mb:8. with
        | Ok d -> d
        | Error _ -> Alcotest.fail "create failed"
      in
      let domid = Domain.domid dom in
      Alcotest.(check bool) "starts paused" true
        (Domain.state dom = Domain.Paused);
      Alcotest.(check bool) "populate" true
        (Xen.populate_memory xen ~domid = Ok ());
      Alcotest.(check bool) "load image" true
        (Xen.load_image xen ~domid ~size_mb:0.5 = Ok ());
      Alcotest.(check bool) "unpause" true (Xen.unpause xen ~domid = Ok ());
      Alcotest.(check bool) "running" true (Domain.is_running dom);
      (* Memory: 8 MB RAM plus hypervisor overhead. *)
      let mem = Xen.domain_mem_kb xen ~domid in
      Alcotest.(check bool)
        (Printf.sprintf "memory accounted (%d kb)" mem)
        true
        (mem >= 8 * 1024 && mem < 9 * 1024);
      Alcotest.(check bool) "destroy" true (Xen.destroy xen ~domid = Ok ());
      Alcotest.(check int) "memory released" 0
        (Xen.domain_mem_kb xen ~domid);
      Alcotest.(check bool) "gone" true (Xen.domain xen ~domid = None))

let test_xen_round_robin_cores =
  in_sim (fun () ->
      let xen = Xen.boot () in
      let cores =
        List.init 5 (fun i ->
            match
              Xen.create_domain xen
                ~name:(Printf.sprintf "g%d" i)
                ~vcpus:1 ~mem_mb:4.
            with
            | Ok d -> Domain.core d
            | Error _ -> Alcotest.fail "create failed")
      in
      (* 3 guest cores (1,2,3) assigned round-robin. *)
      Alcotest.(check (list int)) "round robin" [ 1; 2; 3; 1; 2 ] cores)

let test_xen_out_of_memory =
  in_sim (fun () ->
      (* Tiny host: 1 GB total, Dom0 512 MB, Xen 128 MB. *)
      let platform = { Params.xeon_e5_1630 with Params.ram_mb = 1024 } in
      let xen = Xen.boot ~platform ~dom0_mem_mb:512 () in
      let rec fill n =
        match Xen.create_domain xen ~name:(Printf.sprintf "f%d" n) ~vcpus:1
                ~mem_mb:64. with
        | Error Xen.ENOMEM -> n
        | Error _ -> Alcotest.fail "unexpected error"
        | Ok d -> (
            match Xen.populate_memory xen ~domid:(Domain.domid d) with
            | Ok () -> fill (n + 1)
            | Error Xen.ENOMEM -> n
            | Error _ -> Alcotest.fail "unexpected populate error")
      in
      let booted = fill 0 in
      (* ~384 MB free / 64 MB -> around 5-6 guests. *)
      Alcotest.(check bool)
        (Printf.sprintf "filled host with %d guests" booted)
        true
        (booted >= 4 && booted <= 7))

let test_xen_load_image_linear =
  in_sim (fun () ->
      let xen = Xen.boot () in
      let dom =
        match Xen.create_domain xen ~name:"t" ~vcpus:1 ~mem_mb:64. with
        | Ok d -> d
        | Error _ -> Alcotest.fail "create failed"
      in
      let domid = Domain.domid dom in
      let timed size_mb =
        let t0 = Engine.now () in
        ignore (Xen.load_image xen ~domid ~size_mb);
        Engine.now () -. t0
      in
      let t_small = timed 1. in
      let t_big = timed 100. in
      let ratio = t_big /. t_small in
      Alcotest.(check bool)
        (Printf.sprintf "image load linear in size (ratio %.1f)" ratio)
        true
        (ratio > 50. && ratio < 150.))

let test_xen_hypercall_counter =
  in_sim (fun () ->
      let xen = Xen.boot () in
      let before = Xen.hypercalls xen in
      ignore (Xen.create_domain xen ~name:"h" ~vcpus:1 ~mem_mb:4.);
      Alcotest.(check bool) "counted" true (Xen.hypercalls xen > before))

let test_xen_destroy_dom0_rejected =
  in_sim (fun () ->
      let xen = Xen.boot () in
      Alcotest.(check bool) "dom0 protected" true
        (Xen.destroy xen ~domid:0 = Error Xen.EINVAL))

let suites =
  [
    ( "hv.frames",
      [
        Alcotest.test_case "alloc/free" `Quick test_frames_alloc_free;
        Alcotest.test_case "rounding" `Quick test_frames_rounding;
        Alcotest.test_case "free_all" `Quick test_frames_free_all;
        Alcotest.test_case "over-free" `Quick test_frames_over_free;
        QCheck_alcotest.to_alcotest prop_frames_conservation;
      ] );
    ( "hv.evtchn",
      [
        Alcotest.test_case "lifecycle" `Quick test_evtchn_lifecycle;
        Alcotest.test_case "wrong domain" `Quick test_evtchn_wrong_domain;
        Alcotest.test_case "double bind" `Quick test_evtchn_double_bind;
        Alcotest.test_case "close all" `Quick test_evtchn_close_all;
      ] );
    ( "hv.gnttab",
      [
        Alcotest.test_case "grant/map/unmap" `Quick test_gnttab_flow;
        Alcotest.test_case "wrong grantee" `Quick test_gnttab_wrong_grantee;
        Alcotest.test_case "refcount" `Quick test_gnttab_refcount;
      ] );
    ("hv.tables", [ QCheck_alcotest.to_alcotest prop_tables_match_scan ]);
    ( "hv.devpage",
      [
        Alcotest.test_case "flow" `Quick test_devpage_flow;
        Alcotest.test_case "replace/remove" `Quick
          test_devpage_replace_and_remove;
        Alcotest.test_case "no page" `Quick test_devpage_no_page;
      ] );
    ( "hv.xen",
      [
        Alcotest.test_case "boot" `Quick test_xen_boot;
        Alcotest.test_case "domain lifecycle" `Quick
          test_xen_domain_lifecycle;
        Alcotest.test_case "round-robin cores" `Quick
          test_xen_round_robin_cores;
        Alcotest.test_case "out of memory" `Quick test_xen_out_of_memory;
        Alcotest.test_case "image load linear" `Quick
          test_xen_load_image_linear;
        Alcotest.test_case "hypercall counter" `Quick
          test_xen_hypercall_counter;
        Alcotest.test_case "destroy dom0 rejected" `Quick
          test_xen_destroy_dom0_rejected;
      ] );
  ]
