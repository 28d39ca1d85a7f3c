(* Correctness checks on simulated output. Each is a pure function of
   the values it judges, so tests can hand it a defect and watch it
   fire. [Ok ()] passes; [Error why] fails the run. *)

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Every admitted request either completed or failed. *)
let accounted ~requests ~completed ~failures =
  if completed + failures = requests then Ok ()
  else
    fail "completed %d + failures %d <> requests %d" completed failures
      requests

(* Every create asked for succeeded, booted, and is live on the host. *)
let all_booted ~asked ~created ~boot_errors ~vm_count =
  if created <> asked then fail "%d of %d creates succeeded" created asked
  else if boot_errors <> 0 then fail "%d boots failed" boot_errors
  else if vm_count <> asked then fail "host holds %d guests, expected %d" vm_count asked
  else Ok ()

(* Every failed create is accounted for by an injected create-phase
   fault; deletes and the fault-free top-up never fail. *)
let explained ~failures ~injected ~delete_errors ~top_up_failures =
  if failures > injected then
    fail "%d create failures but only %d injected create faults" failures
      injected
  else if delete_errors <> 0 then fail "%d deletes failed" delete_errors
  else if top_up_failures <> 0 then fail "the fault-free top-up failed"
  else Ok ()

(* All digests in [ds] are the same; [what] names the comparison. *)
let digests_agree ~what = function
  | [] -> Ok ()
  | d :: rest -> (
      match List.find_opt (fun x -> x <> d) rest with
      | None -> Ok ()
      | Some other -> fail "%s: digest %s <> %s" what d other)
