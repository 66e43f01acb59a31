let shrink_axis lo hi half =
  if hi - lo >= 2 * half then (lo + half, hi - half)
  else
    let mid = (lo + hi) / 2 in
    (mid, mid)

let of_rect ~half r =
  let x0, x1 = shrink_axis (Rect.x0 r) (Rect.x1 r) half in
  let y0, y1 = shrink_axis (Rect.y0 r) (Rect.y1 r) half in
  Rect.make x0 y0 x1 y1

let of_region ~half region =
  let rec try_shrink h =
    if h <= 0 then Region.rects region
    else
      let s = Region.shrink_orth region h in
      if Region.is_empty s then try_shrink (h - 1) else Region.rects s
  in
  try_shrink half

let connected_rect a b = Rect.touches ~a ~b

let connected a b =
  List.exists (fun ra -> List.exists (fun rb -> connected_rect ra rb) b) a
