type t = { mutable words : Bytes.t }

(* Byte [b] holds members [8b .. 8b+7], bit [k] of the byte being member
   [8b+k]; the length is always a multiple of 8. Single-member operations
   touch one byte; whole-set operations load 8 bytes at a time as one
   little-endian 64-bit word, whose bit [k] is then member [64w+k]. On
   little-endian hosts the load is a plain machine load. *)

let word_bytes n = max 8 ((n + 63) / 64 * 8)

let create n = { words = Bytes.make (word_bytes (max 0 n)) '\000' }

let capacity t = Bytes.length t.words * 8

let nwords t = Bytes.length t.words / 8

let get_word t w = Bytes.get_int64_le t.words (w * 8)

let set_word t w x = Bytes.set_int64_le t.words (w * 8) x

let ensure t i =
  if i >= capacity t then begin
    let nbytes = max (Bytes.length t.words * 2) (word_bytes (i + 1)) in
    let words = Bytes.make nbytes '\000' in
    Bytes.blit t.words 0 words 0 (Bytes.length t.words);
    t.words <- words
  end

let mem t i =
  if i < 0 || i >= capacity t then false
  else Char.code (Bytes.get t.words (i / 8)) land (1 lsl (i land 7)) <> 0

let add t i =
  if i < 0 then invalid_arg "Bitset.add: negative index";
  ensure t i;
  let b = i / 8 in
  Bytes.set t.words b (Char.chr (Char.code (Bytes.get t.words b) lor (1 lsl (i land 7))))

let remove t i =
  if i >= 0 && i < capacity t then begin
    let b = i / 8 in
    Bytes.set t.words b
      (Char.chr (Char.code (Bytes.get t.words b) land lnot (1 lsl (i land 7)) land 0xff))
  end

let union_into ~into src =
  ensure into (capacity src - 1);
  for w = 0 to nwords src - 1 do
    let s = get_word src w in
    if not (Int64.equal s 0L) then set_word into w (Int64.logor (get_word into w) s)
  done

(* SWAR population count of one 64-bit word. *)
let popcount64 x =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555_5555_5555_5555L) in
  let x =
    add (logand x 0x3333_3333_3333_3333L)
      (logand (shift_right_logical x 2) 0x3333_3333_3333_3333L)
  in
  let x = logand (add x (shift_right_logical x 4)) 0x0f0f_0f0f_0f0f_0f0fL in
  to_int (shift_right_logical (mul x 0x0101_0101_0101_0101L) 56)

let cardinal t =
  let n = ref 0 in
  for w = 0 to nwords t - 1 do
    let x = get_word t w in
    if not (Int64.equal x 0L) then n := !n + popcount64 x
  done;
  !n

(* Index of the lowest set bit of a non-zero byte. *)
let lowest_bit =
  let tbl =
    Array.init 256 (fun c ->
        let rec go k = if k >= 8 || c land (1 lsl k) <> 0 then k else go (k + 1) in
        go 0)
  in
  fun c -> tbl.(c)

(* Call [f] on each [base + k] for the bits [k] of byte [c] that are set,
   lowest first, keeping those inside [lo, hi). *)
let iter_byte_bits f base c ~lo ~hi =
  let c = ref c in
  while !c <> 0 do
    let i = base + lowest_bit !c in
    if i >= lo && i < hi then f i;
    c := !c land (!c - 1)
  done

let iter f t =
  for w = 0 to nwords t - 1 do
    if not (Int64.equal (get_word t w) 0L) then
      for b = w * 8 to (w * 8) + 7 do
        let c = Char.code (Bytes.get t.words b) in
        if c <> 0 then iter_byte_bits f (b * 8) c ~lo:0 ~hi:max_int
      done
  done

let iter_absent f t ~lo ~hi =
  let lo = max lo 0 in
  let top = min hi (capacity t) in
  if lo < top then
    for w = lo / 64 to (top - 1) / 64 do
      if not (Int64.equal (get_word t w) (-1L)) then
        for b = w * 8 to (w * 8) + 7 do
          let c = lnot (Char.code (Bytes.get t.words b)) land 0xff in
          if c <> 0 then iter_byte_bits f (b * 8) c ~lo ~hi:top
        done
    done;
  for i = max lo (capacity t) to hi - 1 do
    f i
  done

let copy t = { words = Bytes.copy t.words }

let clear t = Bytes.fill t.words 0 (Bytes.length t.words) '\000'
