(* Every metric the benchmark reports: name, unit, which way is better,
   and (for per-layer metrics) the end-to-end metric and workload it
   should move and the workload where it should not move. BENCHMARK.json
   lists the same names and units; the runner script refuses a result
   whose names or units differ from it. *)

type t = {
  name : string;
  unit_ : string;
  better : [ `Higher | `Lower ];
  moves : string;  (** end-to-end metric and workload it should move *)
  still : string;  (** workload where it should not move *)
}

let m ?(better = `Lower) ?(moves = "") ?(still = "") name unit_ =
  { name; unit_; better; moves; still }

let end_to_end =
  [
    m "setup_s" "s";
    m "wall_s" "s";
    m ~better:`Higher "ops_per_s" "1/s";
    m "peak_rss_mb" "MiB";
    m ~better:`Higher "success_ratio" "ratio";
  ]

let all_fleet = "day-fleet, day-fleet-2dom"
let xs = "boot-xs, churn-xs"

let toolstack_categories =
  List.map Lightvm_toolstack.Create.category_name
    Lightvm_toolstack.Create.categories

let per_layer =
  [
    m "sim.run_s" "s" ~moves:"wall_s on all workloads" ~still:"none";
    m "sim.process_wakes_per_op" "count" ~moves:"ops_per_s on day-fleet"
      ~still:"boot-xs";
    m "sim.process_spawns_per_op" "count" ~moves:"ops_per_s on day-fleet"
      ~still:"boot-xs";
    m "sim.ns_per_wake" "ns" ~moves:"ops_per_s on day-fleet" ~still:"boot-xs";
    m "sim.virtual_s" "s" ~moves:"informational; a speed-only change keeps it"
      ~still:"all workloads";
    m "sim.freeze_s" "s" ~moves:("setup_s on " ^ all_fleet) ~still:"boot-xs";
    m "sim.thaw_s" "s" ~moves:("setup_s on " ^ all_fleet) ~still:"boot-xs";
    m "sim.image_mb" "MiB" ~moves:("setup_s on " ^ all_fleet) ~still:"boot-xs";
    m "gc.minor_words_per_op" "words" ~moves:"wall_s on every workload"
      ~still:"none";
    m "gc.promoted_words_per_op" "words" ~moves:"peak_rss_mb on every workload"
      ~still:"none";
    m "gc.major_collections" "count" ~moves:"wall_s on churn-xs"
      ~still:"day-fleet";
    m "gc.minor_s" "s" ~moves:"wall_s on every workload" ~still:"none";
    m "gc.major_s" "s" ~moves:"wall_s on churn-xs" ~still:"day-fleet";
    m "gc.barrier_s" "s" ~moves:"wall_s on day-fleet-2dom"
      ~still:"day-fleet (one domain, about 0)";
    m ~better:`Higher "serverless.requests" "count"
      ~moves:("ops_per_s on " ^ all_fleet) ~still:xs;
    m ~better:`Higher "serverless.completed" "count"
      ~moves:("ops_per_s and success_ratio on " ^ all_fleet) ~still:xs;
    m "serverless.failures" "count" ~moves:("success_ratio on " ^ all_fleet)
      ~still:xs;
    m ~better:`Higher "serverless.pool_hit_ratio" "ratio"
      ~moves:("success_ratio on " ^ all_fleet) ~still:xs;
    m "serverless.peak_target" "count" ~moves:("peak_rss_mb on " ^ all_fleet)
      ~still:xs;
    m "serverless.sim_p50_ms" "ms"
      ~moves:"none: simulated time, bit-identical under a speed-only change"
      ~still:"all workloads";
    m "serverless.sim_p99_ms" "ms"
      ~moves:"none: simulated time, bit-identical under a speed-only change"
      ~still:"all workloads";
    m "cluster.vm_create_host_us.p50" "us" ~moves:("ops_per_s on " ^ xs)
      ~still:"day-fleet";
    m "cluster.vm_create_host_us.p99" "us" ~moves:("ops_per_s on " ^ xs)
      ~still:"day-fleet";
    m "cluster.vm_boot_host_us.p50" "us" ~moves:("ops_per_s on " ^ xs)
      ~still:"day-fleet";
    m "cluster.vm_delete_host_us.p50" "us" ~moves:"ops_per_s on churn-xs"
      ~still:"boot-xs";
    m "cluster.vm_delete_host_us.p99" "us" ~moves:"ops_per_s on churn-xs"
      ~still:"boot-xs";
    m "cluster.vm_create_host_growth" "ratio" ~moves:"ops_per_s on boot-xs"
      ~still:"churn-xs";
    m ~better:`Higher "cluster.create_attempts" "count"
      ~moves:"success_ratio on churn-xs" ~still:"day-fleet";
    m "cluster.create_failures" "count" ~moves:"success_ratio on churn-xs"
      ~still:"boot-xs";
    m "toolstack.sim_create_ms.p50" "ms"
      ~moves:"none: simulated time, bit-identical under a speed-only change"
      ~still:"all workloads";
    m "toolstack.sim_create_ms.p99" "ms"
      ~moves:"none: simulated time, bit-identical under a speed-only change"
      ~still:"all workloads";
  ]
  @ List.map
      (fun c ->
        m ("toolstack.sim_s." ^ c) "s"
          ~moves:"none: simulated Fig 5 category time, exact"
          ~still:"all workloads")
      toolstack_categories
  @ [
      m "xenstore.ops_per_op" "count" ~moves:("ops_per_s on " ^ xs)
        ~still:"day-fleet (the noxs fleet issues no XenStore op)";
      m "xenstore.watch_fires_per_op" "count" ~moves:("ops_per_s on " ^ xs)
        ~still:"day-fleet";
      m "xenstore.softirqs_per_op" "count" ~moves:("ops_per_s on " ^ xs)
        ~still:"day-fleet";
      m "xenstore.nodes" "count" ~moves:"peak_rss_mb on boot-xs"
        ~still:"day-fleet";
      m "xenstore.watches" "count" ~moves:"peak_rss_mb on boot-xs"
        ~still:"day-fleet";
      m "hv.hypercalls_per_op" "count" ~moves:"ops_per_s on all workloads"
        ~still:"none";
      m "hv.crossings_per_op" "count" ~moves:"ops_per_s on all workloads"
        ~still:"none";
      m "hv.gnttab_ops_per_op" "count" ~moves:"ops_per_s on all workloads"
        ~still:"none";
      m "hv.domains" "count" ~moves:"peak_rss_mb on boot-xs" ~still:"day-fleet";
      m "hv.mem_kb" "KiB" ~moves:"none: simulated guest memory"
        ~still:"all workloads";
      m "hv.evtchns" "count" ~moves:"peak_rss_mb on boot-xs" ~still:"day-fleet";
      m "hv.grants" "count" ~moves:"peak_rss_mb on boot-xs" ~still:"day-fleet";
      m "trace.overhead_ratio" "ratio"
        ~moves:"none: traced wall_s over untraced wall_s" ~still:"all workloads";
      m "fault.injected" "count" ~moves:"success_ratio on churn-xs"
        ~still:"boot-xs";
      m "fail_ratio" "ratio" ~moves:"success_ratio on churn-xs"
        ~still:"boot-xs (no faults: 0)";
    ]

let find name =
  List.find_opt (fun t -> t.name = name) (end_to_end @ per_layer)
