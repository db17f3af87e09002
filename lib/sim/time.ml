let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000

let to_ms n = float_of_int n /. 1e6
