(* One benchmark invocation: set-up, measured rounds, checks, metrics.

   An untraced invocation ([trace = false]) reports the end-to-end
   metrics: rounds, each a set-up to the start image and a fixed run
   from it, until [seconds] have passed. Every time is the fastest
   round's: the work of a round is fixed, so interference from the
   rest of the machine can only add to it, and on a shared host it
   comes in phases of seconds to minutes that move a median by more
   than any bound a regression gate could use. The median and the
   slowest round are printed next to it.
   A traced invocation reports the per-layer metrics: untraced rounds
   with the benchmark's own spans and the GC event cursor on, for host
   time and allocation, then rounds with the library's [Trace] counters
   on, for exact program counts and the tracing overhead. *)

module Trace = Lightvm_trace.Trace

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  sizes : Workload.sizes;
  out_dir : string option;  (** traced runs write spans and metrics here *)
  sabotage : Workload.sabotage;
  log : string -> unit;
}

let default_config ~workload ~seed ~seconds ~trace =
  {
    workload;
    seed;
    seconds;
    trace;
    sizes = Workload.full;
    out_dir = None;
    sabotage = Workload.no_sabotage;
    log = print_endline;
  }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** in [Metrics] order *)
  failed_checks : string list;
  digest : string;
  rounds : int;
  walls : float list;  (** host seconds of each measured run *)
  setups : float list;  (** host seconds of each round's set-up *)
}

let now = Unix.gettimeofday

(* No round starts after this many seconds, whatever [seconds] asks. *)
let max_seconds = 120.

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let fastest = List.fold_left Float.min Float.infinity

let ratio a b = if b = 0. then 0. else a /. b

(* Host measurements of one round's [Engine.resume] call. Minor words
   are exact for the calling domain ([Gc.minor_words]); the forced
   minor collections around the call make the promoted-word count
   exact too. *)
type sample = {
  mutable run_s : float;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_collections : int;
  mutable gc : Gc_events.totals;
}

let bracket ~events s f =
  Gc.minor ();
  let q0 = Gc.quick_stat () in
  let ev0 = if events then Gc_events.snapshot () else Gc_events.zero () in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  Gc.minor ();
  let q1 = Gc.quick_stat () in
  s.run_s <- t1 -. t0;
  s.minor_words <- w1 -. w0;
  s.promoted_words <- q1.Gc.promoted_words -. q0.Gc.promoted_words;
  s.major_collections <- q1.Gc.major_collections - q0.Gc.major_collections;
  if events then s.gc <- Gc_events.since ev0;
  r

type round = {
  o : Workload.outcome;
  s : sample;  (** [s.run_s] is the measured phase *)
  counters : (string * int) list;  (** [Trace] counters; traced rounds *)
  freeze_s : float;
  image_bytes : int;  (** size of the round's start image *)
  setup_s : float;  (** host seconds to reach the start state *)
}

(* Peak resident set of this process, MiB ([VmHWM]). *)
let peak_rss_mib () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0.
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %f kB" (fun kb -> kb /. 1024.)
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ -> 0.

let run cfg =
  let kind =
    match Workload.of_name cfg.workload with
    | Some k -> k
    | None ->
        invalid_arg
          (Printf.sprintf "unknown workload %S (expected one of: %s)"
             cfg.workload
             (String.concat ", " Workload.names))
  in
  let failed_checks = ref [] in
  let check name = function
    | Ok () -> ()
    | Error why ->
        let line = name ^ ": " ^ why in
        if not (List.mem line !failed_checks) then begin
          cfg.log ("CHECK FAILED " ^ line);
          failed_checks := line :: !failed_checks
        end
  in
  let spans = Spans.create () in
  let ctx ~detail s =
    {
      Workload.seed = cfg.seed;
      sizes = cfg.sizes;
      spans;
      detail;
      sabotage = cfg.sabotage;
      run = bracket ~events:cfg.trace s;
    }
  in
  let fresh_sample () =
    {
      run_s = 0.;
      minor_words = 0.;
      promoted_words = 0.;
      major_collections = 0;
      gc = Gc_events.zero ();
    }
  in
  (* One round: a fresh set-up (timed: build, freeze and the round's
     thaw), then the run from its image. The measured phase is the
     run's [Engine.resume] call, timed by [bracket]; checks and digests
     after it are not. [traced] turns the library's counters on around
     the run. Setting up in every round spreads the set-up samples over
     the whole run, like the rounds. *)
  let round ?(traced = false) kind =
    let s = fresh_sample () in
    Gc.full_major ();
    let t0 = now () in
    let image = Workload.setup (ctx ~detail:false s) kind in
    let build_s = now () -. t0 in
    Gc.full_major ();
    if spans.on then Spans.clear spans;
    if traced then Trace.enable ();
    let o = Workload.round (ctx ~detail:cfg.trace s) kind image in
    let counters = if traced then Trace.Counter.all () else [] in
    if traced then Trace.disable ();
    List.iter (fun (name, r) -> check name r) o.Workload.checks;
    {
      o;
      s;
      counters;
      freeze_s = image.Workload.freeze_s;
      image_bytes = String.length image.Workload.bytes;
      setup_s = build_s +. o.Workload.thaw_s;
    }
  in
  (* Rounds until [budget] seconds have passed and at least [min]
     rounds are done, never starting one past [max_seconds]. *)
  let rounds ?traced ~budget ~min kind =
    let t0 = now () in
    let rec go acc n =
      let el = now () -. t0 in
      if (n >= min && el >= budget) || (n >= 1 && el >= max_seconds) then
        List.rev acc
      else go (round ?traced kind :: acc) (n + 1)
    in
    go [] 0
  in
  (* The fleet on two domains is checked against, and takes its program
     counters from, the same inputs on one domain. *)
  let twin = match kind with Workload.Day_fleet _ -> Workload.Day_fleet { jobs = 1 } | k -> k in
  let digests what rs =
    check what (Checks.digests_agree ~what (List.map (fun r -> r.o.Workload.digest) rs))
  in
  let first rs = List.hd rs in
  let metrics, measured =
    if not cfg.trace then begin
      let reference = if twin <> kind then [ round twin ] else [] in
      (* Peak memory is read after a fixed number of rounds, so a slower
         machine, which runs fewer rounds, does not read as less memory. *)
      let t0 = now () in
      let head = rounds ~budget:0. ~min:3 kind in
      let peak_rss = peak_rss_mib () in
      let rs = head @ rounds ~budget:(cfg.seconds -. (now () -. t0)) ~min:0 kind in
      digests "rounds are deterministic" rs;
      if reference <> [] then
        digests "two domains match one domain" (reference @ [ first rs ]);
      let ops = float_of_int (first rs).o.Workload.ops in
      let wall = fastest (List.map (fun r -> r.s.run_s) rs) in
      let attempted = List.fold_left (fun a r -> a + r.o.Workload.ops) 0 rs in
      let failures = List.fold_left (fun a r -> a + r.o.Workload.failures) 0 rs in
      ( [
          ("setup_s", fastest (List.map (fun r -> r.setup_s) rs));
          ("wall_s", wall);
          ("ops_per_s", ratio ops wall);
          ("peak_rss_mb", peak_rss);
          ( "success_ratio",
            1. -. ratio (float_of_int failures) (float_of_int attempted) );
        ],
        rs )
    end
    else begin
      Gc_events.start ();
      spans.on <- true;
      let untraced = rounds ~budget:(cfg.seconds /. 2.) ~min:2 kind in
      spans.on <- false;
      (* The untraced twin is the overhead ratio's base when the
         measured workload itself cannot be traced. *)
      let base = if twin <> kind then rounds ~budget:0. ~min:1 twin else untraced in
      let traced = rounds ~traced:true ~budget:(cfg.seconds /. 2.) ~min:1 twin in
      digests "rounds are deterministic" untraced;
      digests "tracing on and off agree" (first untraced :: traced);
      if twin <> kind then digests "two domains match one domain" (first untraced :: base);
      let u = first untraced in
      let ops = float_of_int u.o.Workload.ops in
      let per_round f = median (List.map f untraced) in
      let fastest_round f = fastest (List.map f untraced) in
      let counter name =
        match List.assoc_opt name (first traced).counters with
        | Some v -> float_of_int v
        | None -> 0.
      in
      let counter_prefix prefix =
        List.fold_left
          (fun a (n, v) -> if String.starts_with ~prefix n then a + v else a)
          0 (first traced).counters
        |> float_of_int
      in
      let per_op x = ratio x ops in
      let run_s = fastest_round (fun r -> r.s.run_s) in
      let wakes = counter "sim.process_wakes" in
      let words r =
        (* Worker domains are invisible to [Gc.minor_words]; their share
           comes from the quantised runtime counter. *)
        r.s.minor_words +. float_of_int r.s.gc.Gc_events.minor_words_workers
      in
      let quantile xs q = Workload.(quantile (quantiles_of xs) q) in
      let us name q = 1e6 *. quantile (Spans.durations spans name) q in
      let growth =
        let d = Spans.durations spans "vmm.vm_create" in
        let n = Array.length d in
        if n < 10 then 0.
        else
          ratio
            (quantile (Array.sub d (n - (n / 10)) (n / 10)) 0.5)
            (quantile (Array.sub d 0 (n / 10)) 0.5)
      in
      let host =
        [
          ("sim.run_s", run_s);
          ("sim.process_wakes_per_op", per_op wakes);
          ("sim.process_spawns_per_op", per_op (counter "sim.process_spawns"));
          ("sim.ns_per_wake", 1e9 *. ratio run_s wakes);
          ("sim.virtual_s", u.o.Workload.virtual_s);
          ("sim.freeze_s", fastest_round (fun r -> r.freeze_s));
          ("sim.thaw_s", fastest_round (fun r -> r.o.Workload.thaw_s));
          ("sim.image_mb", float_of_int u.image_bytes /. 1048576.);
          ("gc.minor_words_per_op", per_round (fun r -> per_op (words r)));
          ( "gc.promoted_words_per_op",
            per_round (fun r -> per_op r.s.promoted_words) );
          ( "gc.major_collections",
            per_round (fun r -> float_of_int r.s.major_collections) );
          ( "gc.minor_s",
            fastest_round (fun r -> 1e-9 *. float_of_int r.s.gc.Gc_events.minor_ns)
          );
          ( "gc.major_s",
            fastest_round (fun r -> 1e-9 *. float_of_int r.s.gc.Gc_events.major_ns)
          );
          ( "gc.barrier_s",
            fastest_round (fun r ->
                1e-9 *. float_of_int r.s.gc.Gc_events.barrier_ns)
          );
          ("cluster.vm_create_host_us.p50", us "vmm.vm_create" 0.5);
          ("cluster.vm_create_host_us.p99", us "vmm.vm_create" 0.99);
          ("cluster.vm_boot_host_us.p50", us "vmm.vm_boot" 0.5);
          ("cluster.vm_delete_host_us.p50", us "vmm.vm_delete" 0.5);
          ("cluster.vm_delete_host_us.p99", us "vmm.vm_delete" 0.99);
          ("cluster.vm_create_host_growth", growth);
          ("xenstore.ops_per_op", per_op (counter_prefix "xs.op."));
          ("xenstore.watch_fires_per_op", per_op (counter "xs.watch_fires"));
          ("xenstore.softirqs_per_op", per_op (counter "xs.softirqs"));
          ("hv.hypercalls_per_op", per_op (counter "hv.hypercalls"));
          ("hv.crossings_per_op", per_op (counter "hv.crossings"));
          ("hv.gnttab_ops_per_op", per_op (counter "hv.gnttab_ops"));
          ( "trace.overhead_ratio",
            ratio
              (fastest (List.map (fun r -> r.s.run_s) traced))
              (fastest (List.map (fun r -> r.s.run_s) base)) );
          ("fail_ratio", per_op (float_of_int u.o.Workload.failures));
        ]
      in
      (match cfg.out_dir with
      | None -> ()
      | Some dir ->
          let path =
            Filename.concat dir
              (Printf.sprintf "spans-%s-seed%d.jsonl" cfg.workload cfg.seed)
          in
          Spans.write spans path;
          cfg.log (Printf.sprintf "spans: %d written to %s" (Spans.count spans) path));
      (host @ u.o.Workload.exact, untraced @ traced)
    end
  in
  let names =
    List.map (fun m -> m.Metrics.name)
      (if cfg.trace then Metrics.per_layer else Metrics.end_to_end)
  in
  let metrics =
    List.map
      (fun name ->
        let v = Option.value ~default:0. (List.assoc_opt name metrics) in
        if not (Float.is_finite v) then
          check "metrics are finite" (Error (name ^ " is not finite"));
        (name, if Float.is_finite v then v else 0.))
      names
  in
  {
    correct = !failed_checks = [];
    attempted = List.fold_left (fun a r -> a + r.o.Workload.ops) 0 measured;
    failed = List.fold_left (fun a r -> a + r.o.Workload.unexplained) 0 measured;
    metrics;
    failed_checks = List.rev !failed_checks;
    digest = (first measured).o.Workload.digest;
    rounds = List.length measured;
    walls = List.map (fun r -> r.s.run_s) measured;
    setups = List.map (fun r -> r.setup_s) measured;
  }

(* The result line the benchmark contract asks for. *)
let to_json r =
  let metric (name, v) =
    let unit_ =
      match Metrics.find name with Some m -> m.Metrics.unit_ | None -> ""
    in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))
