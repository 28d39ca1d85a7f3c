(* Per-core state as parallel arrays: slot [i < n] is the [i]-th job in
   insertion order, its remaining work unboxed in [rem] and its
   completion ivar in [dones]. Every float operation and its job order
   are fixed (served = elapsed*speed/n per job, dt = min_rem*n/speed,
   fills in insertion order): test/test_sim.ml pins completion times
   bit for bit against a list-based reference model. *)
type core = {
  mutable rem : float array; (* reference-speed seconds still to serve *)
  mutable dones : unit Engine.Ivar.t array;
  mutable n : int; (* active jobs *)
  mutable last : float; (* clock at last advance *)
  mutable event : Engine.token option;
  mutable busy : float; (* cumulative busy seconds *)
  mutable tick : unit -> unit; (* the completion timer's thunk *)
}

type t = { speed : float; cores : core array }

let epsilon = 1e-12

(* Filler for the [dones] slots past [n]: never read or filled, it only
   keeps a finished job's ivar from being retained. *)
let no_job : unit Engine.Ivar.t = Engine.Ivar.create ()

let advance t core =
  let now = Engine.now () in
  let n = core.n in
  if n > 0 then begin
    let elapsed = now -. core.last in
    if elapsed > 0. then begin
      core.busy <- core.busy +. elapsed;
      let served = elapsed *. t.speed /. float_of_int n in
      let rem = core.rem in
      for i = 0 to n - 1 do
        rem.(i) <- rem.(i) -. served
      done
    end
  end;
  core.last <- now

(* Drop the finished jobs, keeping the rest in insertion order, and
   fill their ivars in that order. A fill only queues the waiter's
   wake, so nothing observes the core half-compacted. *)
let retire core =
  let rem = core.rem and dones = core.dones in
  let kept = ref 0 in
  for i = 0 to core.n - 1 do
    let d = dones.(i) in
    if rem.(i) <= epsilon then Engine.Ivar.fill d ()
    else begin
      rem.(!kept) <- rem.(i);
      dones.(!kept) <- d;
      incr kept
    end
  done;
  for i = !kept to core.n - 1 do
    dones.(i) <- no_job
  done;
  core.n <- !kept

let rec reschedule t core =
  (match core.event with
  | Some tok ->
      Engine.cancel tok;
      core.event <- None
  | None -> ());
  retire core;
  let n = core.n in
  if n > 0 then begin
    let rem = core.rem in
    (* [Stdlib.min]'s comparison, without boxing. *)
    let min_rem = ref infinity in
    for i = 0 to n - 1 do
      if not (!min_rem <= rem.(i)) then min_rem := rem.(i)
    done;
    let min_rem = !min_rem in
    let dt = min_rem *. float_of_int n /. t.speed in
    let now = Engine.now () in
    if now +. dt <= now then begin
      (* The leader's residual work is below one ulp of the clock:
         the absolute [epsilon] threshold stops catching float
         residue once the clock is large (ulp grows with magnitude),
         and a timer at [now +. dt = now] would fire at a frozen
         clock, serve an elapsed time of zero and reschedule itself
         forever. Finishing the job immediately is within float
         resolution of finishing it on time. *)
      for i = 0 to n - 1 do
        if rem.(i) <= min_rem then rem.(i) <- 0.
      done;
      reschedule t core
    end
    else core.event <- Some (Engine.after dt core.tick)
  end

let create ?(speed = 1.0) ~ncores () =
  if ncores < 1 then invalid_arg "Sim.Cpu.create: ncores < 1";
  if speed <= 0. then invalid_arg "Sim.Cpu.create: speed <= 0";
  let t =
    {
      speed;
      cores =
        Array.init ncores (fun _ ->
            {
              rem = [||];
              dones = [||];
              n = 0;
              last = 0.;
              event = None;
              busy = 0.;
              tick = ignore;
            });
    }
  in
  Array.iter
    (fun core ->
      core.tick <-
        (fun () ->
          advance t core;
          reschedule t core))
    t.cores;
  t

let ncores t = Array.length t.cores

let push_job core work done_ =
  let cap = Array.length core.rem in
  if core.n = cap then begin
    let cap' = max 4 (2 * cap) in
    let rem = Array.make cap' 0. and dones = Array.make cap' no_job in
    Array.blit core.rem 0 rem 0 core.n;
    Array.blit core.dones 0 dones 0 core.n;
    core.rem <- rem;
    core.dones <- dones
  end;
  core.rem.(core.n) <- work;
  core.dones.(core.n) <- done_;
  core.n <- core.n + 1

let consume_async t ~core work =
  if core < 0 || core >= Array.length t.cores then
    invalid_arg "Sim.Cpu: core index out of range";
  let c = t.cores.(core) in
  let done_ = Engine.Ivar.create () in
  if work <= 0. then Engine.Ivar.fill done_ ()
  else begin
    advance t c;
    push_job c work done_;
    reschedule t c
  end;
  done_

let consume t ~core work = Engine.Ivar.read (consume_async t ~core work)

let load t ~core = t.cores.(core).n

let total_load t = Array.fold_left (fun acc c -> acc + c.n) 0 t.cores

let busiest_load t = Array.fold_left (fun acc c -> max acc c.n) 0 t.cores

let pick_least_loaded t ~cores =
  match cores with
  | [] -> invalid_arg "Sim.Cpu.pick_least_loaded: no cores given"
  | first :: rest ->
      List.fold_left
        (fun best c ->
          if load t ~core:c < load t ~core:best then c else best)
        first rest

let busy_seconds t =
  let now = Engine.now () in
  Array.fold_left
    (fun acc c ->
      let extra = if c.n > 0 then now -. c.last else 0. in
      acc +. c.busy +. extra)
    0. t.cores

let utilization t ~since =
  let now = Engine.now () in
  let span = now -. since in
  if span <= 0. then 0.
  else busy_seconds t /. (span *. float_of_int (Array.length t.cores))

let reset_stats t =
  Array.iter
    (fun c ->
      c.busy <- 0.;
      c.last <- Engine.now ())
    t.cores
