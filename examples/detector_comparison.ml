(* The §5.1 detector limitation, end to end.

   The paper's detector keeps only the last read and last write per
   location, so with accesses 1:read, 2:write, 3:read (1 -> 2 ordered) and
   observed schedule 3 . 1 . 2, the 2-3 race is missed: when 2 executes,
   the slot only remembers read 1.

   This example builds that schedule with real page machinery — timer
   callbacks — records one run as a trace, and replays the trace through
   both detectors. The full-track reference detector pays memory for
   complete recall.

   Run with: dune exec examples/detector_comparison.exe *)

(* The paper's abstract example staged with timers: op 1 reads e and
   schedules op 2 (so op 1 happens-before op 2), which writes e; op 3 reads
   e and fires first. *)
let page =
  {|<script>
var e = 0;
// op 3: fires first, reads e.
setTimeout(function () { var r3 = e; }, 5);
// op 1: reads e, then schedules op 2 (so op1 happens-before op2).
setTimeout(function () {
  var r1 = e;
  setTimeout(function () { e = 42; }, 5);
}, 10);
</script>|}

let races_on_e trace detector =
  List.filter
    (fun (r : Wr_detect.Race.t) ->
      match r.Wr_detect.Race.loc with
      | Wr_mem.Location.Js_var { name = "e"; _ } -> true
      | _ -> false)
    (Wr_detect.Trace.replay trace ~detector)

let () =
  let report =
    Webracer.analyze (Webracer.config ~page ~seed:1 ~explore:false ~trace:true ())
  in
  let trace = Option.get report.Webracer.trace in
  let last_access = races_on_e trace Wr_detect.Last_access.create in
  let full_track = races_on_e trace Wr_detect.Full_track.create in
  Format.printf "schedule: read(op3) . read(op1) . write(op2), with op1 -> op2@.@.";
  Format.printf "last-access detector (paper §5.1): %d race(s) on e@."
    (List.length last_access);
  Format.printf "full-track detector (reference):   %d race(s) on e@.@."
    (List.length full_track);
  List.iter (fun r -> Format.printf "%a@.@." Wr_detect.Race.pp r) full_track;
  if last_access = [] && full_track <> [] then
    print_endline "The single-slot detector missed the race; the full history caught it."
