(* Tests for the discrete-event engine, resources and the CPU model. *)

module Engine = Lightvm_sim.Engine
module Heap = Lightvm_sim.Heap
module Rng = Lightvm_sim.Rng
module Resource = Lightvm_sim.Resource
module Cpu = Lightvm_sim.Cpu

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_time name expected actual =
  if not (feq expected actual) then
    Alcotest.failf "%s: expected %g, got %g" name expected actual

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_order () =
  let h = Heap.create () in
  ignore (Heap.push h ~time:3.0 "c");
  ignore (Heap.push h ~time:1.0 "a");
  ignore (Heap.push h ~time:2.0 "b");
  let order = List.init 3 (fun _ -> Heap.pop h) in
  Alcotest.(check (list (option (pair (float 1e-9) string))))
    "pop order"
    [ Some (1.0, "a"); Some (2.0, "b"); Some (3.0, "c") ]
    order

let test_heap_fifo_ties () =
  let h = Heap.create () in
  ignore (Heap.push h ~time:1.0 "first");
  ignore (Heap.push h ~time:1.0 "second");
  ignore (Heap.push h ~time:1.0 "third");
  let vals =
    List.init 3 (fun _ ->
        match Heap.pop h with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "insertion order on ties"
    [ "first"; "second"; "third" ] vals

let test_heap_cancel () =
  let h = Heap.create () in
  let _a = Heap.push h ~time:1.0 "a" in
  let b = Heap.push h ~time:2.0 "b" in
  let _c = Heap.push h ~time:3.0 "c" in
  Heap.cancel h b;
  Alcotest.(check int) "live size" 2 (Heap.size h);
  let vals =
    List.init 2 (fun _ ->
        match Heap.pop h with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "cancelled skipped" [ "a"; "c" ] vals;
  Alcotest.(check bool) "empty" true (Heap.pop h = None)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (float_bound_exclusive 1000.))
    (fun times ->
      let h = Heap.create () in
      List.iter (fun t -> ignore (Heap.push h ~time:t t)) times;
      let rec drain acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some (t, _) -> drain (t :: acc)
      in
      let popped = drain [] in
      popped = List.stable_sort compare times)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    if x < 0 || x >= 10 then Alcotest.failf "int out of bounds: %d" x;
    let f = Rng.float r 3.5 in
    if f < 0. || f >= 3.5 then Alcotest.failf "float out of bounds: %g" f
  done

let test_rng_exponential_mean () =
  let r = Rng.create 11L in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 2.0) > 0.1 then
    Alcotest.failf "exponential mean off: %g" mean

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_sleep_advances_clock () =
  let final =
    Engine.run (fun () ->
        check_time "start" 0.0 (Engine.now ());
        Engine.sleep 1.5;
        check_time "after sleep" 1.5 (Engine.now ());
        Engine.sleep 0.5;
        check_time "after second sleep" 2.0 (Engine.now ()))
  in
  check_time "final clock" 2.0 final

let test_spawn_interleaving () =
  let log = ref [] in
  let say s = log := s :: !log in
  ignore
    (Engine.run (fun () ->
         Engine.spawn (fun () ->
             Engine.sleep 1.0;
             say "b@1");
         Engine.spawn (fun () ->
             Engine.sleep 2.0;
             say "c@2");
         say "a@0";
         Engine.sleep 3.0;
         say "d@3"));
  Alcotest.(check (list string))
    "event order" [ "a@0"; "b@1"; "c@2"; "d@3" ] (List.rev !log)

let test_ivar_blocks () =
  let result = ref 0 in
  ignore
    (Engine.run (fun () ->
         let iv = Engine.Ivar.create () in
         Engine.spawn (fun () ->
             let v = Engine.Ivar.read iv in
             check_time "woken at fill time" 4.0 (Engine.now ());
             result := v);
         Engine.sleep 4.0;
         Engine.Ivar.fill iv 99));
  Alcotest.(check int) "value delivered" 99 !result

let test_ivar_double_fill () =
  ignore
    (Engine.run (fun () ->
         let iv = Engine.Ivar.create () in
         Engine.Ivar.fill iv 1;
         Alcotest.check_raises "second fill rejected"
           (Invalid_argument "Sim.Engine.Ivar.fill: already filled")
           (fun () -> Engine.Ivar.fill iv 2)))

let test_after_and_cancel () =
  let fired = ref [] in
  ignore
    (Engine.run (fun () ->
         let _t1 = Engine.after 1.0 (fun () -> fired := 1 :: !fired) in
         let t2 = Engine.after 2.0 (fun () -> fired := 2 :: !fired) in
         let _t3 = Engine.after 3.0 (fun () -> fired := 3 :: !fired) in
         Engine.cancel t2;
         Engine.sleep 5.0));
  Alcotest.(check (list int)) "only uncancelled fire" [ 1; 3 ]
    (List.rev !fired)

let test_run_until () =
  let final =
    Engine.run ~until:2.5 (fun () ->
        let rec tick () =
          Engine.sleep 1.0;
          tick ()
        in
        tick ())
  in
  check_time "stops at horizon" 2.5 final

let test_no_nested_run () =
  ignore
    (Engine.run (fun () ->
         Alcotest.check_raises "nested run rejected"
           (Invalid_argument "Sim.Engine.run: a simulation is already running")
           (fun () -> ignore (Engine.run (fun () -> ())))))

let test_past_scheduling_rejected () =
  ignore
    (Engine.run (fun () ->
         Engine.sleep 5.0;
         match Engine.at 1.0 (fun () -> ()) with
         | _ -> Alcotest.fail "expected Invalid_argument"
         | exception Invalid_argument _ -> ()))

(* ------------------------------------------------------------------ *)
(* Resource *)

let test_resource_mutex () =
  let log = ref [] in
  ignore
    (Engine.run (fun () ->
         let m = Resource.create 1 in
         let worker name dur () =
           Resource.with_resource m (fun () ->
               log := (name, Engine.now ()) :: !log;
               Engine.sleep dur)
         in
         Engine.spawn (worker "a" 2.0);
         Engine.spawn (worker "b" 1.0);
         Engine.spawn (worker "c" 1.0)));
  let entries = List.rev !log in
  Alcotest.(check (list (pair string (float 1e-9))))
    "serialised in FIFO order"
    [ ("a", 0.0); ("b", 2.0); ("c", 3.0) ]
    entries

let test_resource_counts () =
  ignore
    (Engine.run (fun () ->
         let r = Resource.create 2 in
         Alcotest.(check int) "available" 2 (Resource.available r);
         Resource.acquire r;
         Resource.acquire r;
         Alcotest.(check bool) "exhausted" false (Resource.try_acquire r);
         Resource.release r;
         Alcotest.(check bool) "one back" true (Resource.try_acquire r);
         Resource.release r;
         Resource.release r))

let test_resource_over_release () =
  ignore
    (Engine.run (fun () ->
         let r = Resource.create 1 in
         Alcotest.check_raises "over-release"
           (Invalid_argument
              "Sim.Resource.release: released more than acquired")
           (fun () -> Resource.release r)))

(* ------------------------------------------------------------------ *)
(* Cpu *)

let test_cpu_single_job () =
  ignore
    (Engine.run (fun () ->
         let cpu = Cpu.create ~ncores:1 () in
         Cpu.consume cpu ~core:0 2.0;
         check_time "exclusive job runs at full speed" 2.0 (Engine.now ())))

let test_cpu_sharing () =
  (* Two equal jobs on one core take twice as long. *)
  let t_done = ref [] in
  ignore
    (Engine.run (fun () ->
         let cpu = Cpu.create ~ncores:1 () in
         Engine.spawn (fun () ->
             Cpu.consume cpu ~core:0 1.0;
             t_done := ("a", Engine.now ()) :: !t_done);
         Engine.spawn (fun () ->
             Cpu.consume cpu ~core:0 1.0;
             t_done := ("b", Engine.now ()) :: !t_done)));
  List.iter
    (fun (name, t) -> check_time (name ^ " finish") 2.0 t)
    !t_done;
  Alcotest.(check int) "both finished" 2 (List.length !t_done)

let test_cpu_unequal_jobs () =
  (* Jobs of work 1 and 3 sharing a core: first finishes at 2 (half
     speed), then the second runs alone: 3 - 1 = 2 remaining at full
     speed, finishing at 4. *)
  let finish = Hashtbl.create 4 in
  ignore
    (Engine.run (fun () ->
         let cpu = Cpu.create ~ncores:1 () in
         Engine.spawn (fun () ->
             Cpu.consume cpu ~core:0 1.0;
             Hashtbl.replace finish "short" (Engine.now ()));
         Engine.spawn (fun () ->
             Cpu.consume cpu ~core:0 3.0;
             Hashtbl.replace finish "long" (Engine.now ()))));
  check_time "short job" 2.0 (Hashtbl.find finish "short");
  check_time "long job" 4.0 (Hashtbl.find finish "long")

let test_cpu_speed_factor () =
  ignore
    (Engine.run (fun () ->
         let cpu = Cpu.create ~speed:2.0 ~ncores:1 () in
         Cpu.consume cpu ~core:0 4.0;
         check_time "double speed halves time" 2.0 (Engine.now ())))

let test_cpu_late_arrival () =
  (* Job B arrives while A is mid-flight: A had 1s served of 2s; with
     sharing, A's remaining 1s takes 2s -> A ends at 3; B (work 2) has
     1s left when A ends -> B ends at 4. *)
  let finish = Hashtbl.create 4 in
  ignore
    (Engine.run (fun () ->
         let cpu = Cpu.create ~ncores:1 () in
         Engine.spawn (fun () ->
             Cpu.consume cpu ~core:0 2.0;
             Hashtbl.replace finish "a" (Engine.now ()));
         Engine.spawn (fun () ->
             Engine.sleep 1.0;
             Cpu.consume cpu ~core:0 2.0;
             Hashtbl.replace finish "b" (Engine.now ()))));
  check_time "a" 3.0 (Hashtbl.find finish "a");
  check_time "b" 4.0 (Hashtbl.find finish "b")

let test_cpu_independent_cores () =
  ignore
    (Engine.run (fun () ->
         let cpu = Cpu.create ~ncores:2 () in
         let d0 = Cpu.consume_async cpu ~core:0 1.0 in
         let d1 = Cpu.consume_async cpu ~core:1 1.0 in
         Engine.wait_all [ d0; d1 ];
         check_time "no cross-core interference" 1.0 (Engine.now ())))

let test_cpu_utilization () =
  ignore
    (Engine.run (fun () ->
         let cpu = Cpu.create ~ncores:2 () in
         Engine.spawn (fun () -> Cpu.consume cpu ~core:0 1.0);
         Engine.sleep 2.0;
         (* Core 0 busy 1s of 2s; core 1 idle: 25% of 2-core capacity. *)
         let u = Cpu.utilization cpu ~since:0.0 in
         if not (feq u 0.25) then Alcotest.failf "utilization: %g" u))

let test_cpu_least_loaded () =
  ignore
    (Engine.run (fun () ->
         let cpu = Cpu.create ~ncores:3 () in
         ignore (Cpu.consume_async cpu ~core:0 10.0);
         ignore (Cpu.consume_async cpu ~core:1 10.0);
         ignore (Cpu.consume_async cpu ~core:1 10.0);
         Alcotest.(check int) "least loaded" 2
           (Cpu.pick_least_loaded cpu ~cores:[ 0; 1; 2 ]);
         Alcotest.(check int) "loads" 2 (Cpu.load cpu ~core:1);
         Alcotest.(check int) "total" 3 (Cpu.total_load cpu)))

let prop_cpu_work_conservation =
  (* Total completion time of N jobs submitted together on one core
     equals the sum of their work (PS conserves work). *)
  QCheck.Test.make ~name:"cpu work conservation" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 8) (float_bound_exclusive 2.0))
    (fun works ->
      let works = List.map (fun w -> w +. 0.01) works in
      let total = List.fold_left ( +. ) 0. works in
      let finish = ref 0. in
      ignore
        (Engine.run (fun () ->
             let cpu = Cpu.create ~ncores:1 () in
             let ivars =
               List.map (fun w -> Cpu.consume_async cpu ~core:0 w) works
             in
             Engine.wait_all ivars;
             finish := Engine.now ()));
      Float.abs (!finish -. total) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Engine order against a reference scheduler

   The engine's run queue, inline sleep wakes and sleep fast path are
   all claimed to be invisible: every run pops in the (time, seq) order
   a plain single-heap scheduler would. [Ref_sched] is that scheduler —
   one ordered map, every park and every wake through it, no shortcut —
   and random programs must log identically on both. *)

module type SCHED = sig
  type token
  type ivar

  val run : (unit -> unit) -> float
  val now : unit -> float
  val self_pid : unit -> int
  val spawn : (unit -> unit) -> unit
  val sleep : float -> unit
  val yield : unit -> unit
  val after : float -> (unit -> unit) -> token
  val at : float -> (unit -> unit) -> token
  val cancel : token -> unit
  val stop : unit -> unit
  val ivar : unit -> ivar
  val fill : ivar -> unit
  val read : ivar -> unit
  val is_full : ivar -> bool
end

module Real_sched : SCHED = struct
  type token = Engine.token
  type ivar = unit Engine.Ivar.t

  let run main = Engine.run main
  let now = Engine.now
  let self_pid = Engine.self_pid
  let spawn f = Engine.spawn f
  let sleep = Engine.sleep
  let yield = Engine.yield
  let after = Engine.after
  let at = Engine.at
  let cancel = Engine.cancel
  let stop = Engine.stop
  let ivar = Engine.Ivar.create
  let fill iv = Engine.Ivar.fill iv ()
  let read = Engine.Ivar.read
  let is_full = Engine.Ivar.is_full
end

(* The hook log of the reference; the real engine's goes through
   [Engine.set_trace_hooks]. *)
let ref_hook : (string -> unit) option ref = ref None

module Ref_sched : SCHED = struct
  type ev = { mutable live : bool; thunk : unit -> unit }
  type token = ev

  module Q = Map.Make (struct
    type t = float * int

    let compare (t1, s1) (t2, s2) =
      match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
  end)

  let q = ref Q.empty
  let clock = ref 0.
  let seq = ref 0
  let stopped = ref false
  let next_pid = ref 1
  let cur = ref 0
  let hook fmt =
    Printf.ksprintf (fun s -> Option.iter (fun h -> h s) !ref_hook) fmt

  let push time thunk =
    let ev = { live = true; thunk } in
    q := Q.add (time, !seq) ev !q;
    incr seq;
    ev

  let now () = !clock
  let self_pid () = !cur
  let after d f = push (!clock +. d) f
  let at t f = push t f
  let cancel ev = ev.live <- false
  let stop () = stopped := true

  type _ Effect.t += Park : (('a -> unit) -> unit) -> 'a Effect.t

  let as_pid pid f =
    let saved = !cur in
    cur := pid;
    Fun.protect ~finally:(fun () -> cur := saved) f

  let exec f =
    let open Effect.Deep in
    let pid = !next_pid in
    incr next_pid;
    hook "%h spawn %d" !clock pid;
    as_pid pid (fun () ->
        match_with f ()
          {
            retc = (fun () -> ());
            exnc = raise;
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Park register ->
                    Some
                      (fun (k : (a, unit) continuation) ->
                        hook "%h park %d" !clock pid;
                        register (fun v ->
                            hook "%h wake %d" !clock pid;
                            ignore
                              (push !clock (fun () ->
                                   as_pid pid (fun () -> continue k v)))))
                | _ -> None);
          })

  let spawn f = ignore (push !clock (fun () -> exec f))

  let sleep d =
    if d > 0. then
      Effect.perform
        (Park (fun resume -> ignore (after d (fun () -> resume ()))))

  let yield () =
    Effect.perform
      (Park (fun resume -> ignore (after 0. (fun () -> resume ()))))

  type ivar = { mutable full : bool; mutable waiters : (unit -> unit) list }

  let ivar () = { full = false; waiters = [] }
  let is_full iv = iv.full

  let fill iv =
    iv.full <- true;
    let ws = List.rev iv.waiters in
    iv.waiters <- [];
    List.iter (fun resume -> resume ()) ws

  let read iv =
    if not iv.full then
      Effect.perform (Park (fun resume -> iv.waiters <- resume :: iv.waiters))

  let run main =
    q := Q.empty;
    clock := 0.;
    seq := 0;
    stopped := false;
    next_pid := 1;
    cur := 0;
    ignore (push 0. (fun () -> exec main));
    let rec loop () =
      if not !stopped then
        match Q.min_binding_opt !q with
        | None -> ()
        | Some (((time, _) as key), ev) ->
            q := Q.remove key !q;
            if ev.live then begin
              clock := time;
              ev.thunk ()
            end;
            loop ()
    in
    loop ();
    !clock
end

type prog = step list

and step =
  | Log
  | Sleep of float
  | Spawn of prog
  | After of float * action
  | At of float * action
  | Cancel of int (* the i-th token this process scheduled, if any *)
  | Yield
  | Fill of int
  | Read of int
  | Stop

and action = Note | Cb_fill of int | Cb_spawn of prog

let rec show_prog p = "[" ^ String.concat "; " (List.map show_step p) ^ "]"

and show_step = function
  | Log -> "log"
  | Sleep d -> Printf.sprintf "sleep %g" d
  | Spawn p -> "spawn " ^ show_prog p
  | After (d, a) -> Printf.sprintf "after %g %s" d (show_action a)
  | At (d, a) -> Printf.sprintf "at +%g %s" d (show_action a)
  | Cancel i -> Printf.sprintf "cancel %d" i
  | Yield -> "yield"
  | Fill i -> Printf.sprintf "fill %d" i
  | Read i -> Printf.sprintf "read %d" i
  | Stop -> "stop"

and show_action = function
  | Note -> "note"
  | Cb_fill i -> Printf.sprintf "(fill %d)" i
  | Cb_spawn p -> "(spawn " ^ show_prog p ^ ")"

let n_ivars = 3

(* Zero, equal and distinct delays: sums of these collide often. *)
let gen_delay = QCheck.Gen.oneofl [ 0.; 0.; 0.5; 1.; 1.; 1.5; 2.5 ]

let rec gen_prog depth =
  QCheck.Gen.(list_size (int_range 0 6) (gen_step depth))

and gen_step depth =
  let open QCheck.Gen in
  let ivar = int_bound (n_ivars - 1) in
  frequency
    ([
       (3, return Log);
       (5, map (fun d -> Sleep d) gen_delay);
       (2, map2 (fun d a -> After (d, a)) gen_delay (gen_action depth));
       (1, map2 (fun d a -> At (d, a)) gen_delay (gen_action depth));
       (1, map (fun i -> Cancel i) (int_bound 2));
       (1, return Yield);
       (2, map (fun i -> Fill i) ivar);
       (2, map (fun i -> Read i) ivar);
     ]
    @ (if depth > 0 then [ (3, map (fun p -> Spawn p) (gen_prog (depth - 1))) ]
       else [])
    @ [ (1, frequency [ (1, return Stop); (19, return Log) ]) ])

and gen_action depth =
  let open QCheck.Gen in
  frequency
    ([
       (3, return Note);
       (2, map (fun i -> Cb_fill i) (int_bound (n_ivars - 1)));
     ]
    @
    if depth > 0 then [ (1, map (fun p -> Cb_spawn p) (gen_prog (depth - 1))) ]
    else [])

(* Run [main_prog] on [S], logging every step with the clock (exact,
   [%h]) and the running pid. *)
module Interp (S : SCHED) = struct
  let run ?(pids = true) ?(label = "m") emit main_prog =
    let ivars = Array.init n_ivars (fun _ -> S.ivar ()) in
    let stamp label =
      if pids then
        emit (Printf.sprintf "%h p%d %s" (S.now ()) (S.self_pid ()) label)
      else emit (Printf.sprintf "%h %s" (S.now ()) label)
    in
    let rec action label = function
      | Note -> fun () -> emit (Printf.sprintf "%h cb %s" (S.now ()) label)
      | Cb_fill i ->
          fun () ->
            emit (Printf.sprintf "%h cb %s" (S.now ()) label);
            if not (S.is_full ivars.(i)) then S.fill ivars.(i)
      | Cb_spawn p ->
          fun () ->
            emit (Printf.sprintf "%h cb %s" (S.now ()) label);
            S.spawn (fun () -> proc (label ^ "/s") p)
    and proc label p =
      let tokens = ref [] in
      List.iteri
        (fun i step ->
          let here = Printf.sprintf "%s.%d" label i in
          (match step with
          | Log -> ()
          | Sleep d -> S.sleep d
          | Spawn child -> S.spawn (fun () -> proc here child)
          | After (d, a) -> tokens := !tokens @ [ S.after d (action here a) ]
          | At (d, a) ->
              tokens := !tokens @ [ S.at (S.now () +. d) (action here a) ]
          | Cancel j -> (
              match List.nth_opt !tokens j with
              | Some tok -> S.cancel tok
              | None -> ())
          | Yield -> S.yield ()
          | Fill j -> if not (S.is_full ivars.(j)) then S.fill ivars.(j)
          | Read j -> S.read ivars.(j)
          | Stop -> S.stop ());
          stamp here)
        p
    in
    proc label main_prog;
    ivars
end

module Real_interp = Interp (Real_sched)
module Ref_interp = Interp (Ref_sched)

let log_hooks emit =
  let event what pid =
    emit (Printf.sprintf "%h %s %d" (Engine.now ()) what pid)
  in
  Some
    {
      Engine.on_spawn = (fun ~pid ~name:_ -> event "spawn" pid);
      on_park = (fun ~pid -> event "park" pid);
      on_wake = (fun ~pid -> event "wake" pid);
    }

let engine_log ~hooks prog =
  let log = ref [] in
  let emit s = log := s :: !log in
  Engine.set_trace_hooks (if hooks then log_hooks emit else None);
  let final =
    Fun.protect
      ~finally:(fun () -> Engine.set_trace_hooks None)
      (fun () -> Real_sched.run (fun () -> ignore (Real_interp.run emit prog)))
  in
  List.rev (Printf.sprintf "end %h" final :: !log)

let reference_log ~hooks prog =
  let log = ref [] in
  let emit s = log := s :: !log in
  ref_hook := if hooks then Some emit else None;
  let final =
    Fun.protect
      ~finally:(fun () -> ref_hook := None)
      (fun () -> Ref_sched.run (fun () -> ignore (Ref_interp.run emit prog)))
  in
  List.rev (Printf.sprintf "end %h" final :: !log)

let arb_prog =
  QCheck.make ~print:show_prog QCheck.Gen.(int_range 1 3 >>= gen_prog)

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine order = reference (time, seq) scheduler"
    ~count:300 arb_prog (fun prog ->
      List.for_all
        (fun hooks ->
          let got = engine_log ~hooks prog
          and want = reference_log ~hooks prog in
          got = want
          || QCheck.Test.fail_reportf
               "hooks %b:\nengine:\n  %s\nreference:\n  %s" hooks
               (String.concat "\n  " got)
               (String.concat "\n  " want))
        [ false; true ])

(* Capture while the run queue holds same-instant spawns (and the heap
   same-instant callbacks ahead of them), then resume: the log must
   equal the unbroken run, where main goes straight on into the
   suffix. Labels, not pids: the resumed suffix is a fresh process. *)
let prop_capture_with_queued_work =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 1 5)
           (pair bool (int_range 0 2 >>= fun d -> gen_prog d)))
        (list_size (int_range 0 2) gen_delay)
        (int_range 0 2 >>= gen_prog))
  in
  let print (pre, late, suffix) =
    Printf.sprintf "pre=[%s] late=[%s] suffix=%s"
      (String.concat "; "
         (List.map
            (fun (cb, p) -> if cb then "cb" else "spawn " ^ show_prog p)
            pre))
      (String.concat "; " (List.map string_of_float late))
      (show_prog suffix)
  in
  QCheck.Test.make ~name:"capture with a non-empty run queue resumes exactly"
    ~count:200 (QCheck.make ~print gen) (fun (pre, late, suffix) ->
      let run_with ~hooks f =
        Engine.set_trace_hooks
          (if hooks then
             Some
               {
                 Engine.on_spawn = (fun ~pid:_ ~name:_ -> ());
                 on_park = (fun ~pid:_ -> ());
                 on_wake = (fun ~pid:_ -> ());
               }
           else None);
        Fun.protect ~finally:(fun () -> Engine.set_trace_hooks None) f
      in
      let prefix emit =
        Engine.sleep 1.5;
        List.iteri
          (fun i (cb, p) ->
            let label = Printf.sprintf "pre%d" i in
            if cb then
              ignore
                (Engine.after 0. (fun () ->
                     emit (Printf.sprintf "%h cb %s" (Engine.now ()) label)))
            else
              Engine.spawn (fun () ->
                  ignore (Real_interp.run ~pids:false ~label emit (Log :: p))))
          pre;
        List.iteri
          (fun i d ->
            ignore
              (Engine.after (d +. 0.25) (fun () ->
                   emit (Printf.sprintf "%h late%d" (Engine.now ()) i))))
          late
      in
      List.for_all
        (fun hooks ->
          let unbroken =
            let log = ref [] in
            let emit s = log := s :: !log in
            run_with ~hooks (fun () ->
                ignore
                  (Engine.run (fun () ->
                       prefix emit;
                       ignore (Real_interp.run ~pids:false emit suffix))));
            List.rev !log
          in
          let resumed =
            let log = ref [] in
            let emit s = log := s :: !log in
            run_with ~hooks (fun () ->
                let _, saved =
                  Engine.run_capture (fun () ->
                      prefix emit;
                      Engine.stop ())
                in
                ignore
                  (Engine.resume saved (fun () ->
                       ignore (Real_interp.run ~pids:false emit suffix))));
            List.rev !log
          in
          unbroken = resumed
          || QCheck.Test.fail_reportf
               "hooks %b:\nunbroken:\n  %s\nresumed:\n  %s" hooks
               (String.concat "\n  " unbroken)
               (String.concat "\n  " resumed))
        [ false; true ])

(* ------------------------------------------------------------------ *)
(* Cpu against the list model it replaced

   [List_cpu] is the processor-sharing model as it was written with one
   job list per core (append on arrival, partition on completion). The
   array model must reproduce its float arithmetic exactly: completion
   times and busy seconds compared with [Float.equal], not a
   tolerance. *)

module List_cpu = struct
  type job = { mutable remaining : float; done_ : unit Engine.Ivar.t }

  type core = {
    mutable jobs : job list;
    mutable last : float;
    mutable event : Engine.token option;
    mutable busy : float;
  }

  type t = { speed : float; cores : core array }

  let epsilon = 1e-12

  let create ~speed ~ncores =
    {
      speed;
      cores =
        Array.init ncores (fun _ ->
            { jobs = []; last = 0.; event = None; busy = 0. });
    }

  let advance t core =
    let now = Engine.now () in
    let n = List.length core.jobs in
    if n > 0 then begin
      let elapsed = now -. core.last in
      if elapsed > 0. then begin
        core.busy <- core.busy +. elapsed;
        let served = elapsed *. t.speed /. float_of_int n in
        List.iter (fun j -> j.remaining <- j.remaining -. served) core.jobs
      end
    end;
    core.last <- now

  let rec reschedule t core =
    (match core.event with
    | Some tok ->
        Engine.cancel tok;
        core.event <- None
    | None -> ());
    let finished, active =
      List.partition (fun j -> j.remaining <= epsilon) core.jobs
    in
    core.jobs <- active;
    List.iter (fun j -> Engine.Ivar.fill j.done_ ()) finished;
    match active with
    | [] -> ()
    | jobs ->
        let min_rem =
          List.fold_left (fun acc j -> min acc j.remaining) infinity jobs
        in
        let n = float_of_int (List.length jobs) in
        let dt = min_rem *. n /. t.speed in
        let now = Engine.now () in
        if now +. dt <= now then begin
          List.iter
            (fun j -> if j.remaining <= min_rem then j.remaining <- 0.)
            jobs;
          reschedule t core
        end
        else
          core.event <-
            Some
              (Engine.after dt (fun () ->
                   advance t core;
                   reschedule t core))

  let consume_async t ~core work =
    let c = t.cores.(core) in
    let done_ = Engine.Ivar.create () in
    if work <= 0. then Engine.Ivar.fill done_ ()
    else begin
      advance t c;
      c.jobs <- c.jobs @ [ { remaining = work; done_ } ];
      reschedule t c
    end;
    done_

  let busy_seconds t =
    let now = Engine.now () in
    Array.fold_left
      (fun acc c ->
        let extra = if c.jobs <> [] then now -. c.last else 0. in
        acc +. c.busy +. extra)
      0. t.cores
end

(* A schedule: jobs (arrival offset, core, work) from a base clock,
   plus busy-time samples. The base puts some runs past 4,500 s, where
   one ulp of the clock exceeds the model's absolute epsilon. *)
type cpu_schedule = {
  base : float;
  speed : float;
  ncores : int;
  jobs : (float * int * float) list;
  samples : float list;
}

let cpu_log ~consume ~busy sched =
  let log = ref [] in
  ignore
    (Engine.run (fun () ->
         Engine.sleep sched.base;
         List.iteri
           (fun i (arrive, core, work) ->
             Engine.spawn (fun () ->
                 Engine.sleep arrive;
                 let done_ = consume ~core work in
                 Engine.Ivar.read done_;
                 log := `Done (i, Engine.now ()) :: !log))
           sched.jobs;
         List.iter
           (fun s ->
             Engine.spawn (fun () ->
                 Engine.sleep s;
                 log := `Busy (Engine.now (), busy ()) :: !log))
           sched.samples));
  List.rev !log

let same_cpu_log a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         match (x, y) with
         | `Done (i, t), `Done (j, u) -> i = j && Float.equal t u
         | `Busy (t, b), `Busy (u, c) -> Float.equal t u && Float.equal b c
         | _ -> false)
       a b

let run_both sched =
  let array_log =
    let cpu = ref None in
    cpu_log sched
      ~consume:(fun ~core w ->
        let c =
          match !cpu with
          | Some c -> c
          | None ->
              let c = Cpu.create ~speed:sched.speed ~ncores:sched.ncores () in
              cpu := Some c;
              c
        in
        Cpu.consume_async c ~core w)
      ~busy:(fun () ->
        match !cpu with Some c -> Cpu.busy_seconds c | None -> 0.)
  in
  let list_log =
    let cpu = List_cpu.create ~speed:sched.speed ~ncores:sched.ncores in
    cpu_log sched
      ~consume:(fun ~core w -> List_cpu.consume_async cpu ~core w)
      ~busy:(fun () -> List_cpu.busy_seconds cpu)
  in
  (array_log, list_log)

let show_cpu_log l =
  String.concat "\n  "
    (List.map
       (function
         | `Done (i, t) -> Printf.sprintf "job %d done %h" i t
         | `Busy (t, b) -> Printf.sprintf "busy at %h: %h" t b)
       l)

let prop_cpu_matches_list_model =
  let gen =
    QCheck.Gen.(
      int_range 1 3 >>= fun ncores ->
      let work =
        frequency
          [
            (6, float_range 1e-6 2.0);
            (2, oneofl [ 0.25; 0.5; 1.0; 1.5 ]);
            (1, oneofl [ 0.; 1.5e-12; 3e-12; 7e-13 ]);
          ]
      in
      let arrive =
        frequency
          [ (3, return 0.); (4, float_range 0. 3.); (2, oneofl [ 0.5; 1.0 ]) ]
      in
      map3
        (fun (base, speed) jobs samples ->
          { base; speed; ncores; jobs; samples })
        (pair
           (oneofl [ 0.; 1.; 4600.; 16384.; 1e6 ])
           (oneofl [ 1.0; 0.62; 0.85; 4.0 ]))
        (list_size (int_range 1 12)
           (triple arrive (int_bound (ncores - 1)) work))
        (list_size (int_range 0 4) (float_range 0. 4.)))
  in
  let print s =
    Printf.sprintf "base %h speed %g cores %d jobs [%s] samples [%s]" s.base
      s.speed s.ncores
      (String.concat "; "
         (List.map
            (fun (a, c, w) -> Printf.sprintf "(%h, %d, %h)" a c w)
            s.jobs))
      (String.concat "; " (List.map (Printf.sprintf "%h") s.samples))
  in
  QCheck.Test.make ~name:"cpu arrays = list model, bit for bit" ~count:300
    (QCheck.make ~print gen) (fun sched ->
      let a, l = run_both sched in
      same_cpu_log a l
      || QCheck.Test.fail_reportf "array model:\n  %s\nlist model:\n  %s"
           (show_cpu_log a) (show_cpu_log l))

(* The residual guard: at 16,384 s one ulp of the clock is 3.6e-12, so a
   1.5e-12 job (above the 1e-12 epsilon) has a completion delay that
   rounds away. Both models must finish it at once, at the same
   instant, instead of rescheduling a timer that cannot move the
   clock. *)
let test_cpu_sub_ulp_residual () =
  let sched =
    {
      base = 16384.;
      speed = 1.0;
      ncores = 1;
      jobs = [ (0., 0, 1.5e-12); (0., 0, 1.0); (0.5, 0, 3e-12) ];
      samples = [ 0.25; 2.0 ];
    }
  in
  let a, l = run_both sched in
  if not (same_cpu_log a l) then
    Alcotest.failf "array model:\n  %s\nlist model:\n  %s" (show_cpu_log a)
      (show_cpu_log l);
  match a with
  | `Done (0, t) :: _ when Float.equal t 16384. -> ()
  | _ -> Alcotest.failf "tiny job not finished at once:\n  %s" (show_cpu_log a)

let suites =
  [
    ( "sim.heap",
      [
        Alcotest.test_case "ordering" `Quick test_heap_order;
        Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "cancel" `Quick test_heap_cancel;
        QCheck_alcotest.to_alcotest prop_heap_sorted;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "exponential mean" `Quick
          test_rng_exponential_mean;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "sleep advances clock" `Quick
          test_sleep_advances_clock;
        Alcotest.test_case "spawn interleaving" `Quick
          test_spawn_interleaving;
        Alcotest.test_case "ivar blocks and wakes" `Quick test_ivar_blocks;
        Alcotest.test_case "ivar double fill" `Quick test_ivar_double_fill;
        Alcotest.test_case "after and cancel" `Quick test_after_and_cancel;
        Alcotest.test_case "run until horizon" `Quick test_run_until;
        Alcotest.test_case "no nested run" `Quick test_no_nested_run;
        Alcotest.test_case "past scheduling rejected" `Quick
          test_past_scheduling_rejected;
        QCheck_alcotest.to_alcotest prop_engine_matches_reference;
        QCheck_alcotest.to_alcotest prop_capture_with_queued_work;
      ] );
    ( "sim.resource",
      [
        Alcotest.test_case "mutex serialises" `Quick test_resource_mutex;
        Alcotest.test_case "counting" `Quick test_resource_counts;
        Alcotest.test_case "over-release" `Quick test_resource_over_release;
      ] );
    ( "sim.cpu",
      [
        Alcotest.test_case "single job" `Quick test_cpu_single_job;
        Alcotest.test_case "equal sharing" `Quick test_cpu_sharing;
        Alcotest.test_case "unequal jobs" `Quick test_cpu_unequal_jobs;
        Alcotest.test_case "speed factor" `Quick test_cpu_speed_factor;
        Alcotest.test_case "late arrival" `Quick test_cpu_late_arrival;
        Alcotest.test_case "independent cores" `Quick
          test_cpu_independent_cores;
        Alcotest.test_case "utilization" `Quick test_cpu_utilization;
        Alcotest.test_case "least loaded" `Quick test_cpu_least_loaded;
        QCheck_alcotest.to_alcotest prop_cpu_work_conservation;
        QCheck_alcotest.to_alcotest prop_cpu_matches_list_model;
        Alcotest.test_case "sub-ulp residual" `Quick test_cpu_sub_ulp_residual;
      ] );
  ]
