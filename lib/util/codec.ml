let get_u8 b i = Char.code (Bytes.get b i)
let set_u8 b i v = Bytes.set b i (Char.chr (v land 0xff))

let get_u16 b i = Bytes.get_uint16_be b i
let set_u16 b i v = Bytes.set_uint16_be b i (v land 0xffff)

let get_u32i b i = Int32.to_int (Bytes.get_int32_be b i) land 0xffffffff

let set_u32i b i v = Bytes.set_int32_be b i (Int32.of_int v)

let blit_string s b off = Bytes.blit_string s 0 b off (String.length s)
