(* Every correctness check of the benchmark can fire, and a tiny run of
   every workload reports every metric by name and unit. *)

open Perfbench_lib

let fires what = function
  | Ok () -> Alcotest.failf "%s: the check passed on a defect" what
  | Error _ -> ()

let passes what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what e

let test_check_functions () =
  passes "accounted" (Checks.accounted ~requests:10 ~completed:9 ~failures:1);
  fires "accounted" (Checks.accounted ~requests:10 ~completed:9 ~failures:0);
  passes "booted"
    (Checks.all_booted ~asked:5 ~created:5 ~boot_errors:0 ~vm_count:5);
  fires "booted, a create missing"
    (Checks.all_booted ~asked:5 ~created:4 ~boot_errors:0 ~vm_count:4);
  fires "booted, a boot failed"
    (Checks.all_booted ~asked:5 ~created:5 ~boot_errors:1 ~vm_count:5);
  fires "booted, host count off"
    (Checks.all_booted ~asked:5 ~created:5 ~boot_errors:0 ~vm_count:6);
  passes "explained"
    (Checks.explained ~failures:3 ~injected:4 ~delete_errors:0
       ~top_up_failures:0);
  fires "explained, failure without fault"
    (Checks.explained ~failures:5 ~injected:4 ~delete_errors:0
       ~top_up_failures:0);
  fires "explained, delete failed"
    (Checks.explained ~failures:0 ~injected:0 ~delete_errors:1
       ~top_up_failures:0);
  fires "explained, top-up failed"
    (Checks.explained ~failures:0 ~injected:0 ~delete_errors:0
       ~top_up_failures:1);
  passes "digests" (Checks.digests_agree ~what:"d" [ "a"; "a"; "a" ]);
  fires "digests" (Checks.digests_agree ~what:"d" [ "a"; "a"; "b" ])

let tiny ?(sabotage = Workload.no_sabotage) ~trace workload =
  {
    (Runner.default_config ~workload ~seed:7 ~seconds:0.02 ~trace) with
    Runner.sizes = Workload.tiny;
    sabotage;
    log = ignore;
  }

(* A run whose named check fails, and only because of the defect. *)
let sabotaged ~workload ~trace ~check sabotage () =
  let clean = Runner.run (tiny ~trace workload) in
  Alcotest.(check bool) "clean run is correct" true clean.Runner.correct;
  let r = Runner.run (tiny ~sabotage ~trace workload) in
  Alcotest.(check bool) "sabotaged run is incorrect" false r.Runner.correct;
  if
    not
      (List.exists
         (fun l -> String.starts_with ~prefix:check l)
         r.Runner.failed_checks)
  then
    Alcotest.failf "expected %S to fire; failed: %s" check
      (String.concat "; " r.Runner.failed_checks)

let none = Workload.no_sabotage

let sabotage_cases =
  [
    ( "undeleted guest trips the churn leak check",
      sabotaged ~workload:"churn-xs" ~trace:false
        ~check:"churn leak-free after top-up"
        { none with leak_one_guest = true } );
    ( "differing digests trip the determinism check",
      sabotaged ~workload:"boot-xs" ~trace:false
        ~check:"rounds are deterministic"
        { none with mangle_digest = true } );
    ( "differing digests trip the two-domain check",
      sabotaged ~workload:"day-fleet-2dom" ~trace:false
        ~check:"two domains match one domain"
        { none with mangle_digest = true } );
    ( "differing digests trip the tracing check",
      sabotaged ~workload:"churn-xs" ~trace:true
        ~check:"tracing on and off agree"
        { none with mangle_digest = true } );
    ( "a lost request trips the fleet accounting check",
      sabotaged ~workload:"day-fleet" ~trace:false
        ~check:"fleet requests accounted"
        { none with drop_request = true } );
    ( "a missing guest trips the boot check",
      sabotaged ~workload:"boot-xs" ~trace:false
        ~check:"boot every create succeeds"
        { none with skip_guest = true } );
  ]

(* Every declared metric, in order, with a finite value. *)
let smoke ~workload ~trace () =
  let r = Runner.run (tiny ~trace workload) in
  Alcotest.(check (list string)) "no failed checks" [] r.Runner.failed_checks;
  let declared = if trace then Metrics.per_layer else Metrics.end_to_end in
  Alcotest.(check (list string))
    "every metric reported"
    (List.map (fun m -> m.Metrics.name) declared)
    (List.map fst r.Runner.metrics);
  List.iter
    (fun (name, v) ->
      let m = Option.get (Metrics.find name) in
      Printf.printf "%s %s: %s = %g %s\n" workload
        (if trace then "per-layer" else "end-to-end")
        name v m.Metrics.unit_;
      if not (Float.is_finite v) then Alcotest.failf "%s is not finite" name)
    r.Runner.metrics;
  if r.Runner.attempted < 1 then Alcotest.fail "nothing attempted";
  if not trace then
    List.iter
      (fun (name, v) ->
        if v <= 0. then Alcotest.failf "end-to-end %s is %g, not positive" name v)
      r.Runner.metrics

let () =
  Alcotest.run "perfbench"
    [
      ("checks", [ Alcotest.test_case "each check fires" `Quick test_check_functions ]);
      ( "sabotage",
        List.map (fun (n, f) -> Alcotest.test_case n `Quick f) sabotage_cases );
      ( "smoke",
        List.concat_map
          (fun w ->
            [
              Alcotest.test_case (w ^ " end-to-end") `Quick
                (smoke ~workload:w ~trace:false);
              Alcotest.test_case (w ^ " per-layer") `Quick
                (smoke ~workload:w ~trace:true);
            ])
          Workload.names );
    ]
