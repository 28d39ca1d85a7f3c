(* The four workloads, driven only through the library's public layer
   APIs. Each workload has a set-up that reaches its start state and
   freezes it into a checkpoint image, and a round that thaws the image
   and runs a fixed amount of simulated work from it. Rounds of one
   workload and seed are identical, so their digests must agree. *)

module Engine = Lightvm_sim.Engine
module Checkpoint = Lightvm_sim.Checkpoint
module Fault = Lightvm_sim.Fault
module Vmm = Lightvm_cluster.Vmm
module Serverless = Lightvm_serverless.Serverless
module Arrival = Lightvm_serverless.Arrival
module Quantiles = Lightvm_metrics.Quantiles
module Mode = Lightvm_toolstack.Mode
module Image = Lightvm_guest.Image

type kind = Day_fleet of { jobs : int } | Boot_xs | Churn_xs

let names = [ "day-fleet"; "day-fleet-2dom"; "boot-xs"; "churn-xs" ]

let of_name = function
  | "day-fleet" -> Some (Day_fleet { jobs = 1 })
  | "day-fleet-2dom" -> Some (Day_fleet { jobs = 2 })
  | "boot-xs" -> Some Boot_xs
  | "churn-xs" -> Some Churn_xs
  | _ -> None

(* Work per round. [full] is what the benchmark measures; [tiny] is for
   the smoke tests. Rounds are short so that a run holds many of them:
   the reported time is the fastest round's, and short rounds fit into
   the short quiet spells of a shared host. *)
type sizes = {
  fleet_requests : int;  (** requests per round, summed over the hosts *)
  boot_guests : int;  (** guests created and booted per round *)
  churn_population : int;  (** standing guests built by the set-up *)
  churn_lifecycles : int;  (** delete-then-create lifecycles per round *)
}

let full =
  {
    fleet_requests = 2_000;
    boot_guests = 10_000;
    churn_population = 2_000;
    churn_lifecycles = 500;
  }

let tiny =
  {
    fleet_requests = 400;
    boot_guests = 40;
    churn_population = 20;
    churn_lifecycles = 200;
  }

(* Deliberate defects, so tests can show that each check fires. *)
type sabotage = {
  leak_one_guest : bool;  (** churn: drop one guest from the books undeleted *)
  mangle_digest : bool;  (** every round: perturb the digest differently *)
  drop_request : bool;  (** day fleet: lose one request from the totals *)
  skip_guest : bool;  (** boot: create one guest fewer than asked *)
}

let no_sabotage =
  {
    leak_one_guest = false;
    mangle_digest = false;
    drop_request = false;
    skip_guest = false;
  }

type ctx = {
  seed : int;
  sizes : sizes;
  spans : Spans.t;
  detail : bool;
      (** read per-guest toolstack counters (traced invocations only) *)
  sabotage : sabotage;
  run : (unit -> float) -> float;
      (** brackets each round's [Engine.resume] call, which it must run
          and whose result it returns; the runner measures inside it *)
}

type image = {
  bytes : string;
  freeze_s : float;  (** host seconds of [Checkpoint.freeze] *)
}

type outcome = {
  ops : int;
  failures : int;
      (** simulated failures: failed acquisitions and [Vm_create_failed] *)
  unexplained : int;  (** failures that no injected fault accounts for *)
  digest : string;  (** of the simulated output *)
  virtual_s : float;
  thaw_s : float;
  checks : (string * (unit, string) result) list;
  exact : (string * float) list;
      (** simulated per-layer values, identical on every round *)
}

let now = Unix.gettimeofday

let ok_or what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Checkpoint.error_to_string e)

let freeze payload =
  let t0 = now () in
  let bytes = ok_or "freeze" (Checkpoint.freeze payload) in
  { bytes; freeze_s = now () -. t0 }

let thaw bytes =
  let t0 = now () in
  let v = ok_or "thaw" (Checkpoint.thaw bytes) in
  (v, now () -. t0)

let mangled = ref 0

let digest_of buf sabotage =
  if sabotage.mangle_digest then begin
    incr mangled;
    Printf.bprintf buf "|mangled %d" !mangled
  end;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let add_resources buf (r : Vmm.resources) =
  Printf.bprintf buf "|dom %d mem %d evt %d gnt %d ctrl %d xsn %d xsw %d"
    r.r_domains r.r_mem_kb r.r_evtchns r.r_grants r.r_ctrl_pages r.r_xs_nodes
    r.r_xs_watches

let resource_values (r : Vmm.resources) =
  [
    ("hv.domains", float_of_int r.r_domains);
    ("hv.mem_kb", float_of_int r.r_mem_kb);
    ("hv.evtchns", float_of_int r.r_evtchns);
    ("hv.grants", float_of_int r.r_grants);
    ("xenstore.nodes", float_of_int r.r_xs_nodes);
    ("xenstore.watches", float_of_int r.r_xs_watches);
  ]

(* Nearest-rank quantile; [0.] when empty. *)
let quantile t q = if Quantiles.count t = 0 then 0. else Quantiles.quantile t q

let quantiles_of xs =
  let t = Quantiles.create () in
  Array.iter (Quantiles.add t) xs;
  t

(* ------------------------------------------------------------------ *)
(* day-fleet: the serverless-day configuration. Four LightVM hosts,
   each with a warm pool of target 4 and Poisson arrivals at 80 req/s,
   open loop in simulated time, one host per partition. *)

let fleet_hosts = 4
let fleet_pool_target = 4
let fleet_rate = 80.
let lookahead = Lightvm_net.Switch.default_latency

(* One process per host, host [h] in partition [h + 1]; block in
   partition 0 until all are done. Dispatch and completion each cross
   the switch, as in the experiment families. *)
let fan_out ~hosts work =
  let all_done = Engine.Ivar.create () in
  let remaining = ref hosts in
  for h = 0 to hosts - 1 do
    Engine.spawn_in
      ~name:(Printf.sprintf "host-%d" h)
      ~partition:(h + 1) ~delay:lookahead
      (fun () ->
        work h;
        Engine.post ~partition:0 ~delay:lookahead (fun () ->
            decr remaining;
            if !remaining = 0 then Engine.Ivar.fill all_done ()))
  done;
  Engine.Ivar.read all_done

let fleet_setup ~jobs =
  let nodes = Array.make fleet_hosts None in
  let _clock, saved =
    Engine.run_partitioned_capture ~jobs ~lookahead ~partitions:fleet_hosts
      (fun () ->
        fan_out ~hosts:fleet_hosts (fun h ->
            let host = Vmm.create ~host_id:h () in
            Serverless.warm_pool host ~target:fleet_pool_target;
            nodes.(h) <- Some host);
        Engine.stop ())
  in
  freeze (saved, Array.map Option.get nodes)

let fleet_config ~seed ~per h =
  let arrival = Arrival.Poisson { rate = fleet_rate } in
  {
    (Serverless.default_config ~arrival
       ~duration:(float_of_int per /. fleet_rate)
       Serverless.Warm_pool)
    with
    Serverless.seed = Int64.add (Int64.of_int seed) (Int64.of_int ((h + 1) * 104729));
    autoscaler =
      { Serverless.default_autoscaler with min_target = fleet_pool_target };
  }

let fleet_round ctx ~jobs image =
  let ((saved : Engine.saved), (nodes : Vmm.t array)), thaw_s =
    thaw image.bytes
  in
  let per = max 1 (ctx.sizes.fleet_requests / fleet_hosts) in
  let slots = Array.make fleet_hosts None in
  (* Host-time bounds of each host's run, one slot per host: hosts may
     run on worker domains, so spans are added after the run. *)
  let starts = Array.make fleet_hosts 0. and ends = Array.make fleet_hosts 0. in
  let t0_virtual = ref 0. in
  let resume_span = Spans.enter ctx.spans "engine.resume" in
  let clock =
    ctx.run @@ fun () ->
    Engine.resume ~jobs saved (fun () ->
        t0_virtual := Engine.now ();
        fan_out ~hosts:fleet_hosts (fun h ->
            starts.(h) <- now ();
            slots.(h) <-
              Some (Serverless.run_node (fleet_config ~seed:ctx.seed ~per h) nodes.(h));
            ends.(h) <- now ());
        Engine.stop ())
  in
  Spans.leave ctx.spans resume_span;
  for h = 0 to fleet_hosts - 1 do
    Spans.add ctx.spans ~parent:resume_span ~op:h "serverless.run_node"
      starts.(h) ends.(h)
  done;
  let per_host = Array.map Option.get slots in
  let total f = Array.fold_left (fun a s -> a + f s) 0 per_host in
  let requests = total (fun s -> s.Serverless.requests) in
  let completed = total (fun s -> s.Serverless.completed) in
  let failures = total (fun s -> s.Serverless.failures) in
  let completed = if ctx.sabotage.drop_request then completed - 1 else completed in
  let hits = total (fun s -> s.Serverless.pool_hits) in
  let takes = total (fun s -> s.Serverless.pool_takes) in
  let peak =
    Array.fold_left (fun a s -> max a s.Serverless.peak_target) 0 per_host
  in
  let merged = Quantiles.create () in
  Array.iter
    (fun s -> Quantiles.merge_into merged ~src:s.Serverless.latency)
    per_host;
  let q = quantile merged in
  let res =
    Array.fold_left
      (fun a n -> Vmm.add_resources a (Vmm.resources n))
      Vmm.zero_resources nodes
  in
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun h s ->
      Buffer.add_string buf
        (Serverless.percentile_note ~label:(string_of_int h) s);
      Printf.bprintf buf "|%h" s.Serverless.makespan)
    per_host;
  Printf.bprintf buf "|%d %d %d|%h %h %h|%h" requests completed failures (q 0.5)
    (q 0.99) (Quantiles.mean merged) clock;
  add_resources buf res;
  {
    ops = requests;
    failures;
    unexplained = failures;
    digest = digest_of buf ctx.sabotage;
    virtual_s = clock -. !t0_virtual;
    thaw_s;
    checks =
      [ ("fleet requests accounted", Checks.accounted ~requests ~completed ~failures) ];
    exact =
      [
        ("serverless.requests", float_of_int requests);
        ("serverless.completed", float_of_int completed);
        ("serverless.failures", float_of_int failures);
        ( "serverless.pool_hit_ratio",
          if takes = 0 then 0. else float_of_int hits /. float_of_int takes );
        ("serverless.peak_target", float_of_int peak);
        ("serverless.sim_p50_ms", 1e3 *. q 0.5);
        ("serverless.sim_p99_ms", 1e3 *. q 0.99);
      ]
      @ resource_values res;
  }

(* ------------------------------------------------------------------ *)
(* boot-xs and churn-xs: one chaos [XS] host (non-split, XenStore,
   xendevd) creating and booting daytime unikernels in a closed loop. *)

(* Per-round record of the benchmark's lifecycle calls. *)
type lifecycle_log = {
  create_virtual : float array;  (** simulated create seconds; nan = failed *)
  boot_virtual : float array;
  mutable attempts : int;
  mutable created : int;
  mutable create_failures : int;
  mutable boot_errors : int;
  sim_create : Quantiles.t;  (** [Vmm.vm_counters] create seconds *)
  categories : (string, float ref) Hashtbl.t;
}

let log_create n =
  {
    create_virtual = Array.make n nan;
    boot_virtual = Array.make n nan;
    attempts = 0;
    created = 0;
    create_failures = 0;
    boot_errors = 0;
    sim_create = Quantiles.create ();
    categories = Hashtbl.create 8;
  }

(* Create and boot one daytime guest; [Some domid] on success. *)
let launch ctx ~parent log host i =
  log.attempts <- log.attempts + 1;
  let v0 = Engine.now () in
  let sp = Spans.enter ctx.spans ~parent ~op:i "vmm.vm_create" in
  let r = Vmm.vm_create host (Vmm.vm_request ~nics:1 Image.daytime) in
  Spans.leave ctx.spans sp;
  match r with
  | Error _ ->
      log.create_failures <- log.create_failures + 1;
      None
  | Ok vi ->
      let domid = vi.Vmm.vi_domid in
      let v1 = Engine.now () in
      if ctx.detail then begin
        match Vmm.vm_counters host ~domid with
        | Ok c ->
            Quantiles.add log.sim_create c.Vmm.vc_create_s;
            List.iter
              (fun (cat, s) ->
                match Hashtbl.find_opt log.categories cat with
                | Some r -> r := !r +. s
                | None -> Hashtbl.replace log.categories cat (ref s))
              c.Vmm.vc_breakdown
        | Error _ -> ()
      end;
      let sp = Spans.enter ctx.spans ~parent ~op:i "vmm.vm_boot" in
      let b = Vmm.vm_boot host ~domid in
      Spans.leave ctx.spans sp;
      if Result.is_error b then log.boot_errors <- log.boot_errors + 1;
      log.create_virtual.(i) <- v1 -. v0;
      log.boot_virtual.(i) <- Engine.now () -. v1;
      log.created <- log.created + 1;
      Some domid

let log_digest buf log =
  Array.iter (fun x -> Printf.bprintf buf "%h," x) log.create_virtual;
  Array.iter (fun x -> Printf.bprintf buf "%h," x) log.boot_virtual;
  Printf.bprintf buf "|%d %d %d %d" log.attempts log.created
    log.create_failures log.boot_errors

let log_values log =
  [
    ("cluster.create_attempts", float_of_int log.attempts);
    ("cluster.create_failures", float_of_int log.create_failures);
    ("toolstack.sim_create_ms.p50", 1e3 *. quantile log.sim_create 0.5);
    ("toolstack.sim_create_ms.p99", 1e3 *. quantile log.sim_create 0.99);
  ]
  @ List.map
      (fun c ->
        let name = Lightvm_toolstack.Create.category_name c in
        ( "toolstack.sim_s." ^ name,
          match Hashtbl.find_opt log.categories name with
          | Some r -> !r
          | None -> 0. ))
      Lightvm_toolstack.Create.categories

let xs_setup () =
  let host = ref None in
  let _clock, saved =
    Engine.run_capture (fun () ->
        host := Some (Vmm.create ~mode:Mode.chaos_xs ());
        Engine.stop ())
  in
  freeze (saved, Option.get !host)

let boot_round ctx image =
  let ((saved : Engine.saved), (host : Vmm.t)), thaw_s = thaw image.bytes in
  let n = ctx.sizes.boot_guests in
  let asked = if ctx.sabotage.skip_guest then n - 1 else n in
  let log = log_create n in
  let t0_virtual = ref 0. in
  let resume_span = Spans.enter ctx.spans "engine.resume" in
  let clock =
    ctx.run @@ fun () ->
    Engine.resume saved (fun () ->
        t0_virtual := Engine.now ();
        for i = 0 to asked - 1 do
          ignore (launch ctx ~parent:resume_span log host i)
        done;
        Engine.stop ())
  in
  Spans.leave ctx.spans resume_span;
  let res = Vmm.resources host in
  let buf = Buffer.create (64 * n) in
  log_digest buf log;
  Printf.bprintf buf "|%h" clock;
  add_resources buf res;
  {
    ops = n;
    failures = n - log.created;
    unexplained = n - log.created;
    digest = digest_of buf ctx.sabotage;
    virtual_s = clock -. !t0_virtual;
    thaw_s;
    checks =
      [
        ( "boot every create succeeds",
          Checks.all_booted ~asked:n ~created:log.created
            ~boot_errors:log.boot_errors ~vm_count:(Vmm.vm_count host) );
      ];
    exact = log_values log @ resource_values res;
  }

(* churn-xs: a standing population, then lifecycles that delete the
   oldest guest whenever the population is full and create and boot a
   new one, under a low-rate fault spec. *)

let churn_faults = "xs.eagain:0.02,create.phase*:0.002"

let churn_setup ctx =
  let pop = ctx.sizes.churn_population in
  let state = ref None in
  let _clock, saved =
    Engine.run_capture (fun () ->
        let host = Vmm.create ~mode:Mode.chaos_xs () in
        let live = Queue.create () in
        let log = log_create pop in
        for i = 0 to pop - 1 do
          match launch { ctx with detail = false } ~parent:(-1) log host i with
          | Some d -> Queue.push d live
          | None -> failwith "churn-xs set-up: a guest failed to create"
        done;
        state := Some (host, live, Vmm.resources host);
        Engine.stop ())
  in
  freeze (saved, Option.get !state)

let churn_round ctx image =
  let ( ((saved : Engine.saved),
         ((host : Vmm.t), (live : int Queue.t), (before : Vmm.resources))),
        thaw_s ) =
    thaw image.bytes
  in
  let pop = ctx.sizes.churn_population in
  let l = ctx.sizes.churn_lifecycles in
  let log = log_create l in
  let spec =
    match Fault.parse_spec churn_faults with
    | Ok s -> s
    | Error e -> failwith e
  in
  let injector = Fault.create ~seed:(Int64.of_int ctx.seed) spec in
  let topped_up = ref 0 and top_up_failures = ref 0 and delete_errors = ref 0 in
  let t0_virtual = ref 0. in
  let resume_span = Spans.enter ctx.spans "engine.resume" in
  let clock =
    ctx.run @@ fun () ->
    Engine.resume saved (fun () ->
        t0_virtual := Engine.now ();
        Fault.with_injector injector (fun () ->
            for i = 0 to l - 1 do
              if Queue.length live >= pop then begin
                let domid = Queue.pop live in
                if not (ctx.sabotage.leak_one_guest && i = 0) then begin
                  let sp = Spans.enter ctx.spans ~parent:resume_span ~op:i "vmm.vm_delete" in
                  let r = Vmm.vm_delete host ~domid in
                  Spans.leave ctx.spans sp;
                  if Result.is_error r then incr delete_errors
                end
              end;
              match launch ctx ~parent:resume_span log host i with
              | Some d -> Queue.push d live
              | None -> ()
            done);
        (* Top the population up again, fault-free, so the leak check
           compares like with like. *)
        let top = log_create 1 in
        while Queue.length live < pop && !top_up_failures = 0 do
          match launch { ctx with detail = false } ~parent:resume_span top host 0 with
          | Some d ->
              incr topped_up;
              Queue.push d live
          | None -> incr top_up_failures
        done;
        Engine.stop ())
  in
  Spans.leave ctx.spans resume_span;
  let injected_create =
    List.fold_left
      (fun a (name, (_checks, injected)) ->
        if String.starts_with ~prefix:"create." name then a + injected else a)
      0 (Fault.counts injector)
  in
  let res = Vmm.resources host in
  let buf = Buffer.create (64 * l) in
  log_digest buf log;
  Printf.bprintf buf "|%d %d|%h" !topped_up !delete_errors clock;
  add_resources buf res;
  let failures = log.create_failures in
  {
    ops = l;
    failures;
    unexplained = max 0 (failures - injected_create) + !delete_errors;
    digest = digest_of buf ctx.sabotage;
    virtual_s = clock -. !t0_virtual;
    thaw_s;
    checks =
      [
        ( "churn failures explained by injected faults",
          Checks.explained ~failures ~injected:injected_create
            ~delete_errors:!delete_errors ~top_up_failures:!top_up_failures );
        ("churn leak-free after top-up", Vmm.check_leak host ~before);
      ];
    exact =
      log_values log
      @ [ ("fault.injected", float_of_int (Fault.injected_total injector)) ]
      @ resource_values res;
  }

(* ------------------------------------------------------------------ *)

let setup ctx = function
  | Day_fleet { jobs } -> fleet_setup ~jobs
  | Boot_xs -> xs_setup ()
  | Churn_xs -> churn_setup ctx

let round ctx kind image =
  match kind with
  | Day_fleet { jobs } -> fleet_round ctx ~jobs image
  | Boot_xs -> boot_round ctx image
  | Churn_xs -> churn_round ctx image
