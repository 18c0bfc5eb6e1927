type t = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

let make ~title ~header ?(notes = []) rows =
  List.iter (fun r -> assert (List.length r = List.length header)) rows;
  { title; header; rows; notes }

let widths t =
  let all = t.header :: t.rows in
  let ncols = List.length t.header in
  List.init ncols (fun i ->
      List.fold_left (fun acc row -> max acc (String.length (List.nth row i))) 0 all)

let render fmt t =
  let ws = widths t in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let line ch =
    Format.fprintf fmt "+%s+@."
      (String.concat "+" (List.map (fun w -> String.make (w + 2) ch) ws))
  in
  let row cells =
    Format.fprintf fmt "|%s|@."
      (String.concat "|" (List.map2 (fun c w -> " " ^ pad c w ^ " ") cells ws))
  in
  Format.fprintf fmt "== %s ==@." t.title;
  line '-';
  row t.header;
  line '=';
  List.iter row t.rows;
  line '-';
  List.iter (fun n -> Format.fprintf fmt "  note: %s@." n) t.notes

let to_string t = Format.asprintf "%a" render t

let cell_float f = Printf.sprintf "%.2f" f

let cell_pct f = Printf.sprintf "%.1f%%" f

let cell_ci ~lower ~upper f =
  Printf.sprintf "%.1f%% [%.1f, %.1f]" f lower upper
