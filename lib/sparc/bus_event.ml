type size = Byte | Half | Word

type t =
  | Write of { addr : int; size : size; value : int }
  | Read of { addr : int; size : size }

let is_write = function Write _ -> true | Read _ -> false

let equal (a : t) (b : t) = a = b

let size_letter = function Byte -> 'b' | Half -> 'h' | Word -> 'w'

let pp fmt = function
  | Write { addr; size; value } ->
      Format.fprintf fmt "W%c %08x <- %08x" (size_letter size) addr value
  | Read { addr; size } -> Format.fprintf fmt "R%c %08x" (size_letter size) addr

let to_string e = Format.asprintf "%a" pp e
