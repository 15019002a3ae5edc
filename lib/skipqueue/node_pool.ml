type 'n t = {
  free : 'n list array; (* index = height - 1 *)
  mutex : Mutex.t;
  mutable returned : int;
  mutable recycled : int;
}

type stats = { returned : int; recycled : int; pooled : int }

let create ~levels =
  { free = Array.make levels []; mutex = Mutex.create (); returned = 0; recycled = 0 }

let push t ~level node =
  Mutex.lock t.mutex;
  t.free.(level - 1) <- node :: t.free.(level - 1);
  t.returned <- t.returned + 1;
  Mutex.unlock t.mutex

let pop t ~level =
  Mutex.lock t.mutex;
  let n =
    match t.free.(level - 1) with
    | [] -> None
    | n :: rest ->
      t.free.(level - 1) <- rest;
      t.recycled <- t.recycled + 1;
      Some n
  in
  Mutex.unlock t.mutex;
  n

let stats t =
  Mutex.lock t.mutex;
  let pooled = Array.fold_left (fun acc l -> acc + List.length l) 0 t.free in
  let s = { returned = t.returned; recycled = t.recycled; pooled } in
  Mutex.unlock t.mutex;
  s
