module hetpnoc/bench

go 1.22

require hetpnoc v0.0.0

replace hetpnoc => ../
