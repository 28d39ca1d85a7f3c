(* The cluster control plane: scheduler policy shapes (binpack fills
   host 0 first; spread never co-locates in a failure domain while an
   empty one has capacity), drain/rebalance under injected migration
   corruption with exact loss accounting, and a qcheck property pinning
   that the whole cluster experiment family is a pure function of its
   seed — identical placement and digests for any --jobs. *)

module Engine = Lightvm_sim.Engine
module Fault = Lightvm_sim.Fault
module Mode = Lightvm_toolstack.Mode
module Image = Lightvm_guest.Image
module Vmm = Lightvm_cluster.Vmm
module Scheduler = Lightvm_cluster.Scheduler
module Cluster = Lightvm_cluster.Cluster
module E = Lightvm.Experiment
module Series = Lightvm_metrics.Series
module Table = Lightvm_metrics.Table

let run_sim f =
  let result = ref None in
  ignore
    (Engine.run (fun () ->
         result := Some (f ());
         Engine.stop ()));
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "simulation did not complete"

let spec_of_string s =
  match Fault.parse_spec s with
  | Ok spec -> spec
  | Error msg -> Alcotest.failf "parse_spec %S: %s" s msg

let launch_or_fail c =
  match Cluster.launch c (Vmm.vm_request ~nics:1 Image.daytime) with
  | Error e -> Alcotest.failf "launch: %s" (Cluster.error_to_string e)
  | Ok p -> (
      match
        Vmm.vm_boot (Cluster.host c p.Cluster.pl_host)
          ~domid:p.Cluster.pl_vm.Vmm.vi_domid
      with
      | Ok () -> p
      | Error e -> Alcotest.failf "boot: %s" (Vmm.error_to_string e))

let vms_per_host c =
  List.map (fun (v : Scheduler.host_view) -> v.Scheduler.hv_vms)
    (Cluster.views c)

(* ------------------------------------------------------------------ *)
(* Scheduler policies through the control plane *)

let test_binpack_fills_host0 () =
  let counts =
    run_sim (fun () ->
        let c =
          Cluster.create ~hosts:4 ~mode:Mode.chaos_xs
            ~policy:Scheduler.Binpack ()
        in
        for _ = 1 to 10 do
          ignore (launch_or_fail c)
        done;
        vms_per_host c)
  in
  Alcotest.(check (list int))
    "all on host 0 while it fits" [ 10; 0; 0; 0 ] counts

let test_spread_respects_failure_domains () =
  run_sim (fun () ->
      (* 8 hosts in 4 racks: the first 4 guests must land in 4 distinct
         racks, and 8 guests must end up one per host. *)
      let c =
        Cluster.create ~hosts:8 ~racks:4 ~mode:Mode.chaos_xs
          ~policy:Scheduler.Spread ()
      in
      for i = 1 to 8 do
        ignore (launch_or_fail c);
        let by_rack = Hashtbl.create 4 in
        List.iter
          (fun (v : Scheduler.host_view) ->
            let r = v.Scheduler.hv_rack in
            Hashtbl.replace by_rack r
              (v.Scheduler.hv_vms
              + Option.value ~default:0 (Hashtbl.find_opt by_rack r)))
          (Cluster.views c);
        let racks = Hashtbl.fold (fun _ n acc -> n :: acc) by_rack [] in
        let occupied = List.length (List.filter (fun n -> n > 0) racks) in
        let doubled = List.exists (fun n -> n >= 2) racks in
        if doubled && occupied < 4 then
          Alcotest.failf
            "after %d guests: a rack holds 2 VMs while an empty rack \
             remains"
            i
      done;
      Alcotest.(check (list int))
        "8 guests end up one per host"
        [ 1; 1; 1; 1; 1; 1; 1; 1 ]
        (vms_per_host c))

let test_scheduler_no_capacity () =
  let views =
    [
      { Scheduler.hv_id = 0; hv_rack = 0; hv_vms = 3; hv_free_kb = 64 };
      { Scheduler.hv_id = 1; hv_rack = 0; hv_vms = 0; hv_free_kb = 128 };
    ]
  in
  List.iter
    (fun policy ->
      let s = Scheduler.make policy in
      (match Scheduler.place s ~hosts:views ~mem_kb:100_000 with
      | Ok id ->
          Alcotest.failf "%s placed on %d with no capacity"
            (Scheduler.policy_name policy)
            id
      | Error _ -> ());
      match Scheduler.place s ~hosts:views ~mem_kb:100 with
      | Ok 1 -> ()
      | Ok id ->
          Alcotest.failf "%s: expected host 1 (only fit), got %d"
            (Scheduler.policy_name policy)
            id
      | Error e ->
          Alcotest.failf "%s: feasible placement refused: %s"
            (Scheduler.policy_name policy)
            e)
    Scheduler.policies

(* ------------------------------------------------------------------ *)
(* Drain under injected migration corruption: losses are accounted,
   never leaked. *)

let test_drain_under_fault_leak_free () =
  let spec = spec_of_string "migrate.corrupt:0.6" in
  let injector = Fault.create ~seed:42L spec in
  run_sim (fun () ->
      let c =
        Cluster.create ~hosts:4 ~racks:4 ~mode:Mode.chaos_xs
          ~policy:Scheduler.Spread ()
      in
      for _ = 1 to 20 do
        ignore (launch_or_fail c)
      done;
      let before = Cluster.resources c in
      let drain =
        Fault.with_injector injector (fun () -> Cluster.drain c ~host:0)
      in
      Alcotest.(check int)
        "host 0 drained" 0
        (Vmm.vm_count (Cluster.host c 0));
      Alcotest.(check int) "nothing stranded" 0 drain.Cluster.mv_stranded;
      if drain.Cluster.mv_lost < 1 then
        Alcotest.fail
          "expected at least one guest lost to migrate.corrupt at this \
           seed";
      Alcotest.(check int)
        "attempted = moved + lost" drain.Cluster.mv_attempted
        (drain.Cluster.mv_moved + drain.Cluster.mv_lost);
      let reb = Cluster.rebalance c () in
      let counts = vms_per_host c in
      let mx = List.fold_left max min_int counts in
      let mn = List.fold_left min max_int counts in
      if mx - mn > 1 then
        Alcotest.failf "rebalance left spread %d (%d moved)" (mx - mn)
          reb.Cluster.mv_moved;
      (* The loss-aware no-leak invariant: accounted resources (live +
         lost) match the pre-drain snapshot exactly. *)
      (match Cluster.check_leak c ~before with
      | Ok () -> ()
      | Error s -> Alcotest.failf "resource leak after drain: %s" s);
      if drain.Cluster.mv_lost > 0 then
        let lost = Cluster.lost_resources c in
        Alcotest.(check bool)
          "lost guests freed accounted memory" true
          (lost.Vmm.r_mem_kb > 0 && lost.Vmm.r_domains > 0))

(* ------------------------------------------------------------------ *)
(* Determinism: the cluster experiment family is a pure function of
   (n, spec, fault_seed) — same seed gives byte-identical renders (and
   therefore placements) whatever the jobs count. *)

let render (r : E.result) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (r.E.name ^ "/" ^ r.E.figure ^ "\n");
  List.iter
    (fun (l : E.labelled) ->
      Buffer.add_string buf ("# " ^ l.E.label ^ "\n");
      List.iter
        (fun (x, y) -> Buffer.add_string buf (Printf.sprintf "%h\t%h\n" x y))
        (Series.points l.E.series))
    r.E.series;
  List.iter
    (fun t -> Buffer.add_string buf (Format.asprintf "%a@." Table.pp t))
    r.E.tables;
  List.iter (fun n -> Buffer.add_string buf (n ^ "\n")) r.E.notes;
  Buffer.contents buf

let digest_of_run ~jobs ~seed =
  let spec = spec_of_string "migrate.corrupt:0.5" in
  let plan = E.cluster_plan ~n:24 ~spec ~fault_seed:seed () in
  Digest.to_hex (Digest.string (render (E.run_plan ~jobs plan)))

let prop_cluster_seed_determinism =
  QCheck.Test.make ~name:"same seed => same placement digest, any jobs"
    ~count:4
    QCheck.(make ~print:Int64.to_string Gen.(map Int64.of_int (int_bound 999)))
    (fun seed ->
      let sequential = digest_of_run ~jobs:1 ~seed in
      let parallel = digest_of_run ~jobs:4 ~seed in
      String.equal sequential parallel)

let test_distinct_seeds_distinct_outcomes () =
  (* Not a hard guarantee for arbitrary seed pairs, but these two must
     differ (different guests are lost in the drain) — a frozen injector
     would make this fail and silently weaken the qcheck property. *)
  let a = digest_of_run ~jobs:1 ~seed:1L in
  let b = digest_of_run ~jobs:1 ~seed:2L in
  if String.equal a b then
    Alcotest.fail "seeds 1 and 2 produced identical cluster timelines"

(* Live-set bound: a host held at a constant population must not grow
   its hypervisor or XenStore teardown state with the number of
   lifecycles it has run. Domids are never reused, so any index entry
   keyed by a dead domid that outlives [Xen.destroy] shows up here as
   growth between k and 2k lifecycles. *)
let live_words host =
  let xen = Vmm.xen host in
  let xs = Lightvm_toolstack.Toolstack.xs_server (Vmm.toolstack host) in
  [
    ("evtchn", Obj.reachable_words (Obj.repr (Lightvm_hv.Xen.evtchn xen)));
    ("gnttab", Obj.reachable_words (Obj.repr (Lightvm_hv.Xen.gnttab xen)));
    ( "watches",
      Obj.reachable_words
        (Obj.repr (Lightvm_xenstore.Xs_server.watches xs)) );
  ]

let test_live_set_flat mode () =
  let population = 50 and k = 100 in
  let host = Vmm.create ~mode () in
  let launch () =
    match Vmm.vm_create host (Vmm.vm_request ~nics:1 Image.daytime) with
    | Error e -> Alcotest.failf "create: %s" (Vmm.error_to_string e)
    | Ok vi -> (
        let domid = vi.Vmm.vi_domid in
        match Vmm.vm_boot host ~domid with
        | Ok () -> domid
        | Error e -> Alcotest.failf "boot: %s" (Vmm.error_to_string e))
  in
  let live = Queue.create () in
  let cycle n =
    for _ = 1 to n do
      (match Vmm.vm_delete host ~domid:(Queue.pop live) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "delete: %s" (Vmm.error_to_string e));
      Queue.push (launch ()) live
    done
  in
  let after_k, after_2k =
    run_sim (fun () ->
        for _ = 1 to population do
          Queue.push (launch ()) live
        done;
        cycle k;
        let wk = live_words host in
        cycle k;
        (wk, live_words host))
  in
  List.iter2
    (fun (name, wk) (_, w2k) ->
      if float_of_int (abs (w2k - wk)) > 0.01 *. float_of_int wk then
        Alcotest.failf
          "%s live set moved from %d to %d words (%d -> %d lifecycles)" name
          wk w2k k (2 * k))
    after_k after_2k

let suites =
  [
    ( "cluster.scheduler",
      [
        Alcotest.test_case "binpack fills host 0 first" `Quick
          test_binpack_fills_host0;
        Alcotest.test_case "spread respects failure domains" `Quick
          test_spread_respects_failure_domains;
        Alcotest.test_case "no-capacity refusal" `Quick
          test_scheduler_no_capacity;
      ] );
    ( "cluster.drain",
      [
        Alcotest.test_case "drain under migrate.corrupt is leak-free"
          `Slow test_drain_under_fault_leak_free;
      ] );
    ( "cluster.live_set",
      [
        Alcotest.test_case "chaos [XS] host: teardown state flat" `Quick
          (test_live_set_flat Mode.chaos_xs);
        Alcotest.test_case "LightVM host: teardown state flat" `Quick
          (test_live_set_flat Mode.lightvm);
      ] );
    ( "cluster.determinism",
      [
        QCheck_alcotest.to_alcotest prop_cluster_seed_determinism;
        Alcotest.test_case "distinct seeds diverge" `Slow
          test_distinct_seeds_distinct_outcomes;
      ] );
  ]
