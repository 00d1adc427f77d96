include Hyaline_family

let name = "hyaline-1"

let create cfg hub heap = Hyaline_family.create ~guard:false cfg hub heap

let read _ctx _slot addr _proj = Atomic.get addr
