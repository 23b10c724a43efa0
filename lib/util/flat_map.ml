(* Keys are non-negative, so [-1] marks a free cell. *)
let free = -1

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable size : int;
  (* The home cell of a key is the top [bits] bits of its product with
     an odd constant (Fibonacci hashing), i.e. [(k * golden) lsr shift]
     with [shift = 63 - bits] over OCaml's 63-bit ints. *)
  mutable shift : int;
}

(* 2^62 / golden ratio, rounded to odd. *)
let golden = 0x278DDE6E5FD29F05

let min_bits = 4

let rec bits_for n b = if 1 lsl b >= 2 * n then b else bits_for n (b + 1)

let make bits =
  let cap = 1 lsl bits in
  { keys = Array.make cap free; vals = Array.make cap 0; size = 0; shift = 63 - bits }

let create n = make (bits_for n min_bits)
let length t = t.size
let home t k = (k * golden) lsr t.shift

(* Cell holding [k], or the free cell where it would go. The table is
   never more than half full, so a free cell always ends the probe. *)
let slot t k =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let rec probe i =
    let x = keys.(i) in
    if x = k || x = free then i else probe ((i + 1) land mask)
  in
  probe (home t k)

let find_default t k ~default =
  if k < 0 then default
  else
    let i = slot t k in
    if t.keys.(i) = k then t.vals.(i) else default

let grow t =
  let keys = t.keys and vals = t.vals in
  let g = make (63 - t.shift + 1) in
  t.keys <- g.keys;
  t.vals <- g.vals;
  t.shift <- g.shift;
  Array.iteri
    (fun i k ->
      if k <> free then begin
        let j = slot t k in
        t.keys.(j) <- k;
        t.vals.(j) <- vals.(i)
      end)
    keys

(* Bind [k], free at cell [i], to [v]. *)
let insert t i k v =
  t.keys.(i) <- k;
  t.vals.(i) <- v;
  t.size <- t.size + 1;
  if 2 * t.size > Array.length t.keys then grow t

let check k = if k < 0 then invalid_arg "Flat_map: negative key"

let replace t k v =
  check k;
  let i = slot t k in
  if t.keys.(i) = k then t.vals.(i) <- v else insert t i k v

let raise_to t k v =
  check k;
  let i = slot t k in
  if t.keys.(i) = k then begin
    let old = t.vals.(i) in
    if old >= v then old
    else begin
      t.vals.(i) <- v;
      v
    end
  end
  else begin
    insert t i k v;
    v
  end

let iter f t = Array.iteri (fun i k -> if k <> free then f k t.vals.(i)) t.keys

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) free;
  t.size <- 0

let max_displacement t =
  let mask = Array.length t.keys - 1 in
  let worst = ref 0 in
  Array.iteri
    (fun i k -> if k <> free then worst := Int.max !worst ((i - home t k) land mask))
    t.keys;
  !worst
