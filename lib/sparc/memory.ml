(* Pages of 1024 words (4 KiB), allocated on first touch. *)

let page_words = 1024
let page_shift = 10

type t = { pages : (int, int array) Hashtbl.t }

exception Misaligned of int

let create () = { pages = Hashtbl.create 64 }

let copy t =
  let pages = Hashtbl.create (Hashtbl.length t.pages) in
  Hashtbl.iter (fun k v -> Hashtbl.add pages k (Array.copy v)) t.pages;
  { pages }

(* Pages [dst] has and [src] lacks are zeroed, not dropped: an all-zero
   page reads as an absent one. *)
let blit ~src dst =
  Hashtbl.iter
    (fun key page -> if not (Hashtbl.mem src.pages key) then Array.fill page 0 page_words 0)
    dst.pages;
  Hashtbl.iter
    (fun key page ->
      match Hashtbl.find_opt dst.pages key with
      | Some p -> Array.blit page 0 p 0 page_words
      | None -> Hashtbl.add dst.pages key (Array.copy page))
    src.pages

let page_of t widx =
  let key = widx lsr page_shift in
  match Hashtbl.find_opt t.pages key with
  | Some p -> p
  | None ->
      let p = Array.make page_words 0 in
      Hashtbl.add t.pages key p;
      p

let load_word t addr =
  let addr = addr land 0xFFFF_FFFF in
  if addr land 3 <> 0 then raise (Misaligned addr);
  let widx = addr lsr 2 in
  let key = widx lsr page_shift in
  match Hashtbl.find_opt t.pages key with
  | Some p -> p.(widx land (page_words - 1))
  | None -> 0

let store_word t addr v =
  let addr = addr land 0xFFFF_FFFF in
  if addr land 3 <> 0 then raise (Misaligned addr);
  let widx = addr lsr 2 in
  (page_of t widx).(widx land (page_words - 1)) <- v land 0xFFFF_FFFF

(* Big-endian byte numbering: byte 0 of a word is its most significant. *)
let byte_shift addr = 8 * (3 - (addr land 3))

let load_byte t addr =
  let addr = addr land 0xFFFF_FFFF in
  let w = load_word t (addr land lnot 3) in
  (w lsr byte_shift addr) land 0xFF

let store_byte t addr v =
  let addr = addr land 0xFFFF_FFFF in
  let word_addr = addr land lnot 3 in
  let sh = byte_shift addr in
  let w = load_word t word_addr in
  store_word t word_addr ((w land lnot (0xFF lsl sh)) lor ((v land 0xFF) lsl sh))

let half_shift addr = 8 * (2 - (addr land 2))

let load_half t addr =
  let addr = addr land 0xFFFF_FFFF in
  if addr land 1 <> 0 then raise (Misaligned addr);
  let w = load_word t (addr land lnot 3) in
  (w lsr half_shift addr) land 0xFFFF

let store_half t addr v =
  let addr = addr land 0xFFFF_FFFF in
  if addr land 1 <> 0 then raise (Misaligned addr);
  let word_addr = addr land lnot 3 in
  let sh = half_shift addr in
  let w = load_word t word_addr in
  store_word t word_addr ((w land lnot (0xFFFF lsl sh)) lor ((v land 0xFFFF) lsl sh))

let blit_words t base words =
  Array.iteri (fun i w -> store_word t (base + (4 * i)) w) words

(* Pages are allocated on first touch, so two images with the same
   words can differ in page population — an all-zero page equals an
   absent one. *)
let zero_page = Array.make page_words 0

let page_equal a b =
  let rec go i = i >= page_words || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let equal a b =
  let covers x y =
    Hashtbl.fold
      (fun key page acc ->
        acc
        && page_equal page
             (match Hashtbl.find_opt y.pages key with Some p -> p | None -> zero_page))
      x.pages true
  in
  covers a b && covers b a

let iter_nonzero t f =
  Hashtbl.iter
    (fun key page ->
      Array.iteri
        (fun i v -> if v <> 0 then f (((key lsl page_shift) lor i) lsl 2) v)
        page)
    t.pages
