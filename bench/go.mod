module ampc/bench

go 1.22

require ampc v0.0.0

replace ampc => ../
