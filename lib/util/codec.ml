let get_u8 b i = Char.code (Bytes.get b i)
let set_u8 b i v = Bytes.set b i (Char.chr (v land 0xff))

let get_u16 b i = Bytes.get_uint16_be b i
let set_u16 b i v = Bytes.set_uint16_be b i (v land 0xffff)

let get_u32 b i = Bytes.get_int32_be b i
let set_u32 b i v = Bytes.set_int32_be b i v

let get_u32i b i = Int32.to_int (Bytes.get_int32_be b i) land 0xffffffff

let set_u32i b i v = Bytes.set_int32_be b i (Int32.of_int v)

let blit_string s b off = Bytes.blit_string s 0 b off (String.length s)

let hexdump b ~off ~len =
  let buf = Buffer.create (len * 4) in
  let line_start = ref off in
  let stop = off + len in
  while !line_start < stop do
    let n = Int.min 16 (stop - !line_start) in
    Buffer.add_string buf (Printf.sprintf "%04x  " (!line_start - off));
    for i = 0 to 15 do
      if i < n then
        Buffer.add_string buf
          (Printf.sprintf "%02x " (get_u8 b (!line_start + i)))
      else Buffer.add_string buf "   ";
      if i = 7 then Buffer.add_char buf ' '
    done;
    Buffer.add_char buf ' ';
    for i = 0 to n - 1 do
      let c = Bytes.get b (!line_start + i) in
      Buffer.add_char buf (if c >= ' ' && c < '\x7f' then c else '.')
    done;
    Buffer.add_char buf '\n';
    line_start := !line_start + 16
  done;
  Buffer.contents buf
