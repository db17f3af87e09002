let referenced x = x + 1

let opened = 2
