type config = {
  lines : int;
  words_per_line : int;
  miss_penalty : int;
  write_through_cost : int;
}

let default_icache = { lines = 64; words_per_line = 4; miss_penalty = 6; write_through_cost = 0 }
let default_dcache = { lines = 64; words_per_line = 4; miss_penalty = 6; write_through_cost = 1 }

type t = {
  config : config;
  tags : int array;  (* -1 = invalid *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create config =
  assert (is_pow2 config.lines && is_pow2 config.words_per_line);
  { config; tags = Array.make config.lines (-1) }

let copy t = { t with tags = Array.copy t.tags }

let access t addr ~write =
  let line_bytes = t.config.words_per_line * 4 in
  let block = addr / line_bytes in
  let index = block land (t.config.lines - 1) in
  let tag = block / t.config.lines in
  let hit = t.tags.(index) = tag in
  if not hit then t.tags.(index) <- tag;
  (if hit then 0 else t.config.miss_penalty)
  + if write then t.config.write_through_cost else 0
