type 'a t = { cells : 'a option array; init : int -> 'a; mutex : Mutex.t }

let slots = 4096

let create init = { cells = Array.make slots None; init; mutex = Mutex.create () }

let find t id = t.cells.(id land (slots - 1))

let get t id =
  let idx = id land (slots - 1) in
  match t.cells.(idx) with
  | Some v -> v
  | None ->
    Mutex.protect t.mutex (fun () ->
        match t.cells.(idx) with
        | Some v -> v
        | None ->
          let v = t.init idx in
          t.cells.(idx) <- Some v;
          v)

let iter f t = Array.iter (function Some v -> f v | None -> ()) t.cells
