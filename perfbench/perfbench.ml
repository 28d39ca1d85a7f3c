(* Benchmark entry point: one workload per process, so no workload
   measures another's live heap.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--out DIR] [--commit SHA]
     perfbench.exe --describe

   Prints provenance, a digest of the simulated output, every metric by
   name and unit, and as its last line the JSON result object. Exits 1
   when a correctness check fails, 2 on bad arguments. [--describe]
   lists every metric with its unit and, for per-layer metrics, the
   end-to-end metric and workload it should move. *)

let cpu_model () =
  try
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> "unknown"
          | Some l when String.starts_with ~prefix:"model name" l -> (
              match String.index_opt l ':' with
              | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
              | None -> "unknown")
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ -> "unknown"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and out = ref "" and commit = ref "unknown" in
  let describe = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of: " ^ String.concat ", " Perfbench_lib.Workload.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "DIR where a traced run writes spans");
      ("--commit", Arg.Set_string commit, "SHA commit stamped into the output");
      ( "--describe",
        Arg.Set describe,
        " print every metric with its unit and what it should move, as JSON" );
    ]
  in
  let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let open Perfbench_lib in
  if !describe then begin
    let row (m : Metrics.t) =
      Printf.sprintf
        "{\"name\": %S, \"unit\": %S, \"better\": %S, \"moves\": %S, \"still\": %S}"
        m.name m.unit_
        (match m.better with `Higher -> "higher" | `Lower -> "lower")
        m.moves m.still
    in
    Printf.printf "{\"end_to_end\": [%s],\n \"per_layer\": [\n%s]}\n"
      (String.concat ", " (List.map row Metrics.end_to_end))
      (String.concat ",\n" (List.map row Metrics.per_layer));
    exit 0
  end;
  if Workload.of_name !workload = None || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  Lightvm_sim.Pool.tune_gc ();
  let gc = Gc.get () in
  let cfg =
    {
      (Runner.default_config ~workload:!workload ~seed:!seed ~seconds:!seconds
         ~trace:(!trace = 1))
      with
      Runner.out_dir = (if !out = "" then None else Some !out);
    }
  in
  Printf.printf
    "provenance: workload=%s seed=%d trace=%d commit=%s nproc=%d cpu=%S \
     ocaml=%s gc.minor_heap_words=%d gc.space_overhead=%d\n%!"
    !workload !seed !trace !commit
    (Domain.recommended_domain_count ())
    (cpu_model ()) Sys.ocaml_version gc.Gc.minor_heap_size
    gc.Gc.space_overhead;
  let r = Runner.run cfg in
  let s = cfg.Runner.sizes in
  Printf.printf
    "input: rounds=%d ops_per_round=%d (day-fleet requests %d, boot-xs guests \
     %d, churn-xs lifecycles %d on %d standing guests)\n"
    r.Runner.rounds
    (r.Runner.attempted / max 1 r.Runner.rounds)
    s.Workload.fleet_requests s.Workload.boot_guests s.Workload.churn_lifecycles
    s.Workload.churn_population;
  if !workload = "day-fleet-2dom" && cfg.Runner.trace then
    print_endline
      "note: gc.minor_words_per_op counts worker domains from the runtime's \
       per-minor-collection counter (quantised); program counters come from \
       day-fleet, which has the same inputs";
  let spread name xs =
    Printf.printf "round %s (s): fastest %.6f median %.6f slowest %.6f:%s\n" name
      (Runner.fastest xs) (Runner.median xs)
      (List.fold_left Float.max 0. xs)
      (String.concat "" (List.map (Printf.sprintf " %.6f") xs))
  in
  spread "walls" r.Runner.walls;
  spread "setups" r.Runner.setups;
  Printf.printf "digest: %s %s\n" !workload r.Runner.digest;
  List.iter
    (fun (name, v) ->
      let u = match Metrics.find name with Some m -> m.Metrics.unit_ | None -> "" in
      Printf.printf "metric: %s = %.6g %s\n" name v u)
    r.Runner.metrics;
  print_endline (Runner.to_json r);
  exit (if r.Runner.correct then 0 else 1)
