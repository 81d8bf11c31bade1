let now () = Unix.gettimeofday ()

type deadline = float

let never = infinity
let after s = now () +. s
let at t = t
let expired d = now () > d
let earliest a b = Float.min a b
let remaining d = d -. now ()
