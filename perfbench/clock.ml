(* Monotonic nanoseconds. *)
let now_ns () = Monotonic_clock.now ()
let us_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e3
let s_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9
