(* GC phase times and per-domain allocation from [Runtime_events].

   The cursor reads this process's own event rings, one ring per
   domain. Phase time is summed over domains, so two domains each
   spending 1 ms in a minor collection report 2 ms. Allocation comes
   from the [EV_C_MINOR_ALLOCATED] counter a domain emits at each of
   its minor collections: it is quantised to whole minor heaps and is
   used only where [Gc.minor_words] cannot see, on worker domains. *)

module RE = Runtime_events

type totals = {
  mutable minor_ns : int;
  mutable major_ns : int;
  mutable barrier_ns : int;
  mutable minor_words_workers : int;
      (** words allocated on domains other than ring 0, quantised *)
}

let zero () =
  {
    minor_ns = 0;
    major_ns = 0;
    barrier_ns = 0;
    minor_words_workers = 0;
  }

let acc = zero ()

(* Open phases per ring, innermost first. *)
let open_phases : (int, (RE.runtime_phase * int) list) Hashtbl.t =
  Hashtbl.create 8

let ns ts = Int64.to_int (RE.Timestamp.to_int64 ts)

(* Outermost minor collection; major slices (the unit of incremental
   major work, explicit or not); time spent waiting at a
   stop-the-world barrier for the other domains. *)
let classify = function
  | RE.EV_MINOR -> `Minor
  | RE.EV_MAJOR_SLICE | RE.EV_EXPLICIT_GC_MAJOR_SLICE -> `Major
  | RE.EV_STW_API_BARRIER | RE.EV_MINOR_LEAVE_BARRIER -> `Barrier
  | _ -> `Other

let runtime_begin ring ts phase =
  let stack = Option.value ~default:[] (Hashtbl.find_opt open_phases ring) in
  Hashtbl.replace open_phases ring ((phase, ns ts) :: stack)

let runtime_end ring ts phase =
  match Hashtbl.find_opt open_phases ring with
  | Some ((p, t0) :: rest) when p = phase -> (
      Hashtbl.replace open_phases ring rest;
      let d = ns ts - t0 in
      match classify phase with
      | `Minor -> acc.minor_ns <- acc.minor_ns + d
      | `Major -> acc.major_ns <- acc.major_ns + d
      | `Barrier -> acc.barrier_ns <- acc.barrier_ns + d
      | `Other -> ())
  | _ ->
      (* An end whose begin was lost (ring overwritten, or the cursor
         started mid-phase): drop the ring's stack rather than pair
         the wrong events. *)
      Hashtbl.replace open_phases ring []

let runtime_counter ring _ts counter value =
  match counter with
  | RE.EV_C_MINOR_ALLOCATED when ring <> 0 ->
      acc.minor_words_workers <- acc.minor_words_workers + value
  | _ -> ()

let callbacks =
  lazy (RE.Callbacks.create ~runtime_begin ~runtime_end ~runtime_counter ())

let cursor = ref None

(* Idempotent; events are recorded from this call on. *)
let start () =
  if Option.is_none !cursor then begin
    RE.start ();
    cursor := Some (RE.create_cursor None)
  end

let poll () =
  match !cursor with
  | None -> ()
  | Some c -> ignore (RE.read_poll c (Lazy.force callbacks) None)

(* A copy of the running totals. *)
let snapshot () =
  poll ();
  { acc with minor_ns = acc.minor_ns }

(* Totals accumulated since [before] was taken. *)
let since before =
  let now = snapshot () in
  {
    minor_ns = now.minor_ns - before.minor_ns;
    major_ns = now.major_ns - before.major_ns;
    barrier_ns = now.barrier_ns - before.barrier_ns;
    minor_words_workers = now.minor_words_workers - before.minor_words_workers;
  }
